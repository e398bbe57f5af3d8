(* Page-table placement and the per-node replication count (Mitosis). *)

type t = {
  home_node : int;  (* node backing every walk level *)
  replicas : int;
  mutable replica_updates : int;
  mutable replica_invalidations : int;
}

let create ?(replicas = 0) ~home_node () =
  if home_node < 0 then invalid_arg "Pt.create: negative home_node";
  if replicas < 0 then invalid_arg "Pt.create: negative replicas";
  { home_node; replicas; replica_updates = 0; replica_invalidations = 0 }

let replicated t = t.replicas > 0
let replica_count t = t.replicas
let replica_updates t = t.replica_updates
let replica_invalidations t = t.replica_invalidations

(* With per-node mirrors every walk resolves from the local one;
   otherwise all walkers share the home node. *)
let walk_node t ~node = if replicated t then node else t.home_node

let apply t update =
  let n = t.replicas in
  if n > 0 then
    match update with
    | P2m.Set _ | P2m.Superpage_mapped _ | P2m.Promoted _ ->
        t.replica_updates <- t.replica_updates + n
    | P2m.Cleared _ | P2m.Splintered _ -> t.replica_invalidations <- t.replica_invalidations + n
