type map_error = [ `Enomem ]
type migrate_error = [ `Enomem | `Not_mapped ]

let machine (system : Xen.System.t) = system.Xen.System.machine

(* An offlined frame is never reachable through a P2M (the RAS
   invariant [Manager.audit] checks at run end), so the allocator
   rejects freeing one as a double free.  Name the frame and the pfn
   instead: this is where a violation shows when a path moves or drops
   the mapping before the run ends.  The check runs only on failure. *)
let free_mapped system ~pfn ~mfn =
  let m = machine system in
  try Memory.Machine.free m ~mfn ~order:0
  with Invalid_argument _ when Memory.Machine.is_offlined m mfn ->
    invalid_arg
      (Printf.sprintf "Internal.free_mapped: offlined mfn %d still mapped at pfn %d" mfn pfn)

let map_page system (domain : Xen.Domain.t) ~pfn ~node =
  match Memory.Machine.alloc_frame_fallback (machine system) ~prefer:node with
  | None -> Error `Enomem
  | Some mfn ->
      (match Xen.P2m.invalidate domain.Xen.Domain.p2m pfn with
      | Some old_mfn -> free_mapped system ~pfn ~mfn:old_mfn
      | None -> ());
      Xen.P2m.set domain.Xen.Domain.p2m pfn ~mfn ~writable:true;
      Ok mfn

let migrate_page system (domain : Xen.Domain.t) ~pfn ~node =
  match Xen.P2m.get domain.Xen.Domain.p2m pfn with
  | Xen.P2m.Invalid -> Error `Not_mapped
  | Xen.P2m.Mapped { mfn = old_mfn; writable } ->
      let old_node = Memory.Machine.node_of_mfn (machine system) old_mfn in
      if old_node = node then Ok old_mfn
      else if system.Xen.System.faults.Xen.System.migrate_alloc_fails () then
        (* Injected transient ENOMEM: the target node claims exhaustion
           before we even try.  Callers degrade (retry/defer). *)
        Error `Enomem
      else begin
        match Memory.Machine.alloc_frame (machine system) ~node with
        | None -> Error `Enomem
        | Some new_mfn ->
            (* Migrating a single page that lives inside a 2 MiB
               superpage first splinters the extent: every one of its
               4 KiB entries pays the write-protect→remap cost before
               the one page can move on its own. *)
            let p2m = domain.Xen.Domain.p2m in
            let costs = system.Xen.System.costs in
            let scale_i = Memory.Machine.page_scale (machine system) in
            let splinter_time =
              if Xen.P2m.is_superpage p2m pfn then
                Xen.Costs.splinter_time costs
                  ~frames_4k:(Xen.P2m.sp_frames p2m * scale_i)
              else 0.0
            in
            (* Write-protect the entry so concurrent guest writes fault
               and stall until the copy completes, then remap. *)
            Xen.P2m.write_protect p2m pfn;
            let bytes = Memory.Machine.frame_bytes (machine system) in
            Xen.P2m.set domain.Xen.Domain.p2m pfn ~mfn:new_mfn ~writable;
            free_mapped system ~pfn ~mfn:old_mfn;
            (* One scaled frame stands for [page_scale] real 4 KiB pages,
               each paying the fixed write-protect/remap cost. *)
            Xen.Domain.charge domain Xen.Domain.Migrate
              (splinter_time
              +. (float_of_int scale_i *. costs.Xen.Costs.page_migrate_fixed)
              +. (float_of_int bytes *. costs.Xen.Costs.copy_byte));
            Ok new_mfn
      end

(* Grouped migration: move pfns.(0..n-1) — all mapped, all off-node —
   to [node] as one batched remap.  Target frames are allocated (and
   the injected transient-ENOMEM fault drawn) page by page in array
   order, so the fault schedule is identical whatever the grouping;
   the remap itself then goes through [P2m.migrate_batch], which sorts
   once, splinters each extent at most once and lets us charge the
   amortised (src,dst)-pair cost instead of n standalone migrations. *)
let migrate_group system (domain : Xen.Domain.t) ~on_splinter ~pfns ~scratch_mfns ~n ~node =
  assert (n >= 0 && n <= Array.length pfns && n <= Array.length scratch_mfns);
  let m = machine system in
  let faults = system.Xen.System.faults in
  let ready = ref 0 in
  let stopped = ref false in
  while (not !stopped) && !ready < n do
    if faults.Xen.System.migrate_alloc_fails () then stopped := true
    else begin
      match Memory.Machine.alloc_frame m ~node with
      | None -> stopped := true
      | Some mfn ->
          scratch_mfns.(!ready) <- mfn;
          incr ready
    end
  done;
  let moved = !ready in
  if moved > 0 then begin
    let p2m = domain.Xen.Domain.p2m in
    let costs = system.Xen.System.costs in
    let scale = Memory.Machine.page_scale m in
    let splinter_time = ref 0.0 in
    let stats =
      Xen.P2m.migrate_batch p2m
        ~on_splinter:(fun pfn ->
          splinter_time :=
            !splinter_time
            +. Xen.Costs.splinter_time costs ~frames_4k:(Xen.P2m.sp_frames p2m * scale);
          on_splinter pfn)
        pfns scratch_mfns ~n:moved
        ~f:(fun pfn ~old_mfn -> free_mapped system ~pfn ~mfn:old_mfn)
    in
    (* Every page in the group was mapped when it was grouped and
       nothing invalidates between grouping and remap. *)
    assert (stats.Xen.P2m.applied = moved);
    Xen.Domain.charge domain Xen.Domain.Migrate
      (!splinter_time
      +. Xen.Costs.migrate_batch_time costs ~pages:moved
           ~page_bytes:(Memory.Machine.frame_bytes m) ~scale)
  end;
  if !stopped then `Enomem moved else `Done moved

let node_of_pfn system (domain : Xen.Domain.t) pfn =
  let mfn = Xen.P2m.mfn_of domain.Xen.Domain.p2m pfn in
  if mfn < 0 then None else Some (Memory.Machine.node_of_mfn (machine system) mfn)
