(* Page-table placement and per-node replication (Mitosis). *)

let levels = 4

type t = {
  level_nodes : int array;  (* node backing each walk level, root first *)
  replicas : (int * P2m.t) array;
  mutable replica_updates : int;
  mutable replica_invalidations : int;
}

let create ?(replicate_nodes = [||]) ~home_node ~frames ~sp_frames () =
  if home_node < 0 then invalid_arg "Pt.create: negative home_node";
  {
    level_nodes = Array.make levels home_node;
    replicas =
      Array.map
        (fun node ->
          if node < 0 then invalid_arg "Pt.create: negative replica node";
          (node, P2m.create ~sp_frames ~frames ()))
        replicate_nodes;
    replica_updates = 0;
    replica_invalidations = 0;
  }

let replicated t = Array.length t.replicas > 0
let replica_count t = Array.length t.replicas
let replica_updates t = t.replica_updates
let replica_invalidations t = t.replica_invalidations

let level_node t ~level ~node =
  if level < 0 || level >= levels then invalid_arg "Pt.level_node: level out of range";
  (* With per-node replicas every walk level resolves from the local
     mirror; otherwise all walkers share the primary's placement. *)
  if replicated t then node else t.level_nodes.(level)

let apply t update =
  let n = Array.length t.replicas in
  if n > 0 then begin
    (* Replay the primary's mutation verbatim on every mirror.  The
       update stream covers every entry point (including each batch
       element), so the mirrors march through exactly the states the
       primary did and translation equivalence is maintained by
       construction. *)
    (match update with
    | P2m.Set { pfn; mfn; writable } ->
        Array.iter (fun (_, r) -> P2m.set r pfn ~mfn ~writable) t.replicas;
        t.replica_updates <- t.replica_updates + n
    | P2m.Cleared { pfn } ->
        Array.iter (fun (_, r) -> ignore (P2m.invalidate r pfn)) t.replicas;
        t.replica_invalidations <- t.replica_invalidations + n
    | P2m.Superpage_mapped { pfn; mfn; writable } ->
        Array.iter (fun (_, r) -> P2m.map_superpage r ~pfn ~mfn ~writable) t.replicas;
        t.replica_updates <- t.replica_updates + n
    | P2m.Splintered { pfn } ->
        Array.iter (fun (_, r) -> ignore (P2m.splinter r pfn)) t.replicas;
        t.replica_invalidations <- t.replica_invalidations + n
    | P2m.Promoted { pfn } ->
        Array.iter (fun (_, r) -> ignore (P2m.promote r ~pfn)) t.replicas;
        t.replica_updates <- t.replica_updates + n)
  end

let check_consistent t ~primary =
  let frames = P2m.frames primary in
  Array.for_all
    (fun (_, r) ->
      P2m.frames r = frames
      && P2m.mapped_count r = P2m.mapped_count primary
      && P2m.superpage_count r = P2m.superpage_count primary
      && P2m.check_consistent r
      &&
      let ok = ref true in
      for pfn = 0 to frames - 1 do
        if P2m.get r pfn <> P2m.get primary pfn then ok := false;
        if P2m.is_superpage r pfn <> P2m.is_superpage primary pfn then ok := false
      done;
      !ok)
    t.replicas
