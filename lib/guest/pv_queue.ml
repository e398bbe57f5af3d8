type op =
  | Alloc of Memory.Page.pfn
  | Release of Memory.Page.pfn

let op_pfn = function Alloc pfn | Release pfn -> pfn

type stats = {
  mutable enqueued : int;
  mutable flushes : int;
  mutable ops_sent : int;
  mutable guest_time : float;
  mutable dropped : int;
  mutable dedup_hits : int;
}

type partition = {
  mutable entries : op array;
  mutable len : int;
}

type t = {
  parts : partition array;
  mask : int;
  capacity : int;
  flush : op array -> float;
  stats : stats;
  frames : int;
  (* Most-recent-op-wins dedup state: a flat generation-stamp array
     keyed by pfn.  Each flush bumps [gen]; the first (newest) op seen
     for a pfn stamps it, later (older) ops find the stamp current and
     are superseded.  O(1) per entry, no clearing between flushes, no
     allocation.  [record] grows it (doubling, capped at [frames]) to
     cover every pfn queued so far, so it is sized by the pfns the
     guest churns, not by its memory. *)
  mutable stamp : int array;
  mutable gen : int;
  scratch : op array;  (* survivor collection, reused across flushes *)
  mutable drop_op : op -> bool;
  mutable obs : Obs.Stream.t option;
  mutable obs_domain : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ?(partitions = 4) ?(capacity = 128) ~frames ~flush () =
  if not (is_power_of_two partitions) then
    invalid_arg "Pv_queue.create: partitions must be a power of two";
  if capacity <= 0 then invalid_arg "Pv_queue.create: capacity must be positive";
  if frames <= 0 then invalid_arg "Pv_queue.create: frames must be positive";
  {
    parts = Array.init partitions (fun _ -> { entries = Array.make capacity (Alloc 0); len = 0 });
    mask = partitions - 1;
    capacity;
    flush;
    stats =
      {
        enqueued = 0;
        flushes = 0;
        ops_sent = 0;
        guest_time = 0.0;
        dropped = 0;
        dedup_hits = 0;
      };
    frames;
    stamp = [||];
    gen = 0;
    scratch = Array.make capacity (Alloc 0);
    drop_op = (fun _ -> false);
    obs = None;
    obs_domain = -1;
  }

let set_obs t ?(domain = -1) stream =
  t.obs <- stream;
  t.obs_domain <- domain

let set_fault_hooks t ~drop_op = t.drop_op <- drop_op

let partitions t = Array.length t.parts

let partition_of t pfn = pfn land t.mask

let flush_partition t part =
  if part.len > 0 then
    Obs.Profile.span Obs.Profile.Pv_flush @@ fun () ->
  begin
    let n = part.len in
    (* Shard dedup, newest-first: survivors are packed into the tail of
       the reusable scratch array, so they come out oldest-first (the
       arrival order the hypervisor would have seen).  The stamp array
       is shared by all partitions — their pfn sets are disjoint (the
       partition index IS the low pfn bits), so a stamp written by one
       partition is never consulted by another. *)
    t.gen <- t.gen + 1;
    let g = t.gen in
    let m = ref 0 in
    for i = n - 1 downto 0 do
      let op = part.entries.(i) in
      let pfn = op_pfn op in
      if t.stamp.(pfn) <> g then begin
        t.stamp.(pfn) <- g;
        incr m;
        t.scratch.(t.capacity - !m) <- op
      end
    done;
    let survivors = Array.sub t.scratch (t.capacity - !m) !m and hits = n - !m in
    (* Snapshot and reset BEFORE invoking the handler: a flush callback
       that re-enters [record] (e.g. a reconciliation sweep releasing
       pages from inside the hypercall) must find room in the partition
       instead of writing past capacity. *)
    part.len <- 0;
    if hits > 0 then begin
      t.stats.dedup_hits <- t.stats.dedup_hits + hits;
      (match t.obs with
      | None -> ()
      | Some stream -> Obs.Stream.emit ~domain:t.obs_domain ~arg:hits stream Obs.Event.Pv_dedup);
      if Obs.Metrics.enabled () then Obs.Metrics.incr ~by:hits "guest.pv.dedup_hits"
    end;
    (* Injected guest-side drops are drawn ONCE per surviving op, after
       dedup: the fault schedule must not depend on how many superseded
       duplicates each op shadowed.  Survivors are compacted in place in
       arrival order, so the draw sequence is the op sequence. *)
    let ops =
      let kept = ref 0 in
      for i = 0 to Array.length survivors - 1 do
        let op = survivors.(i) in
        if t.drop_op op then t.stats.dropped <- t.stats.dropped + 1
        else begin
          survivors.(!kept) <- op;
          incr kept
        end
      done;
      if !kept = Array.length survivors then survivors else Array.sub survivors 0 !kept
    in
    let sent = Array.length ops in
    if sent > 0 then begin
      (* The partition lock is held across the hypercall: no other core
         can reallocate a queued page while the hypervisor processes it. *)
      let time = t.flush ops in
      t.stats.flushes <- t.stats.flushes + 1;
      t.stats.ops_sent <- t.stats.ops_sent + sent;
      t.stats.guest_time <- t.stats.guest_time +. time;
      (match t.obs with
      | None -> ()
      | Some stream ->
          Obs.Stream.emit ~domain:t.obs_domain ~arg:sent stream Obs.Event.Pv_flush);
      if Obs.Metrics.enabled () then begin
        Obs.Metrics.incr "guest.pv.flushes";
        Obs.Metrics.incr ~by:sent "guest.pv.ops_sent";
        Obs.Metrics.observe "guest.pv.batch_size" (float_of_int sent);
        Obs.Metrics.observe "guest.pv.flush_time_s" time
      end
    end
  end

let record t op =
  let pfn = op_pfn op in
  if pfn < 0 || pfn >= t.frames then
    invalid_arg (Printf.sprintf "Pv_queue.record: pfn %d outside [0, %d)" pfn t.frames);
  if pfn >= Array.length t.stamp then begin
    let stamp = Array.make (Int.min t.frames (Int.max 64 (2 * pfn))) 0 in
    Array.blit t.stamp 0 stamp 0 (Array.length t.stamp);
    t.stamp <- stamp
  end;
  let part = t.parts.(partition_of t pfn) in
  part.entries.(part.len) <- op;
  part.len <- part.len + 1;
  t.stats.enqueued <- t.stats.enqueued + 1;
  (match t.obs with
  | None -> ()
  | Some stream ->
      let arg = match op with Alloc _ -> 0 | Release _ -> 1 in
      Obs.Stream.emit ~domain:t.obs_domain ~pfn ~arg stream Obs.Event.Pv_record);
  if part.len = t.capacity then flush_partition t part

let flush_all t = Array.iter (flush_partition t) t.parts

let pending t = Array.fold_left (fun acc p -> acc + p.len) 0 t.parts

let stats t = t.stats
