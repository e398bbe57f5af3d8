type region = {
  pfns : int array;
  weights : float array;  (* popularity by hot rank (rank 0 hottest) *)
  page_node : int array;
  node_weight : float array;  (* per-node popularity sums *)
  replicated : Bytes.t;  (* pages whose read traffic is served locally *)
  mutable replicated_local : float;
      (* popularity mass served on the reader's own node (replicated
         read-only pages); node_weight + replicated_local sums to 1 *)
  mutable shift : int;
      (* phase rotation: page (shift + rank) mod pages holds hot
         rank [rank]; algorithmic phases move the hot front *)
}

type t = {
  app : Workloads.App.t;
  machine : Memory.Machine.t;
  p2m : Xen.P2m.t;
  pool : Guest.Pfn_pool.t;
  shared : region;
  privates : region array;
  (* Flat pfn -> region location index.  Region pfns are small dense
     ints from the pool's fresh range, so two int arrays beat a
     Hashtbl on the per-sample lookup path: no hashing, no boxing, no
     allocation.  Entry i is pfn [pfn_base + i], and the arrays end at
     the highest region pfn: they are sized by the regions, not by
     mem_frames.  owner -1 = untracked, 0 = shared region, t+1 =
     private region of thread t; slot is the page's index within that
     region. *)
  pfn_base : int;
  pfn_owner : int array;
  pfn_slot : int array;
  (* Scratch for feed_samples, reused every Carrefour period instead
     of a fresh Hashtbl: seen.(i) marks shared page i as already
     sampled; touched lists the marked indices so only they are
     cleared afterwards. *)
  sample_seen : Bytes.t;
  sample_touched : int array;
  (* Pages fed to Carrefour this period, for refresh_placement: the
     heat table copies sample arrays on insert, so one scratch float
     array serves every sample and only the pfns need remembering. *)
  sample_pfns : int array;
  mutable sample_count : int;
  sample_scratch : float array;
  shared_zipf : Sim.Rng.zipf;  (* the shared region's popularity law *)
  mutable private_sample_cursor : int;
  mutable phase : int;
  mutable migrations : int;
}

let shared t = t.shared
let privates t = t.privates
let pool t = t.pool
let migrations t = t.migrations

let zipf_weights ~pages ~s =
  let w = Array.init pages (fun i -> (float_of_int (i + 1)) ** (-.s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. total) w

let uniform_weights ~pages = Array.make pages (1.0 /. float_of_int pages)

(* Touch [pages] consecutive virtual pages as [cpu]; returns the region
   with its placement resolved through the guest and hypervisor page
   tables. *)
let build_region system gpt ~alloc domain ~vfn0 ~pages ~weights ~cpu ~nodes =
  let pfns = Array.make pages 0 in
  let page_node = Array.make pages 0 in
  let node_weight = Array.make nodes 0.0 in
  for i = 0 to pages - 1 do
    let pfn = Guest.Gpt.touch gpt (vfn0 + i) ~alloc in
    if pfn < 0 then invalid_arg "Guest_model: guest physical memory exhausted";
    pfns.(i) <- pfn;
    let p2m = domain.Xen.Domain.p2m in
    if Xen.P2m.mfn_of p2m pfn < 0 then
      ignore (Xen.Domain.handle_fault domain ~costs:system.Xen.System.costs ~pfn ~cpu);
    let mfn = Xen.P2m.mfn_of p2m pfn in
    let node =
      if mfn < 0 then domain.Xen.Domain.home_nodes.(0)
      else Memory.Machine.node_of_mfn system.Xen.System.machine mfn
    in
    page_node.(i) <- node;
    node_weight.(node) <- node_weight.(node) +. weights.(i)
  done;
  { pfns; weights; page_node; node_weight; replicated = Bytes.make pages '\000';
    replicated_local = 0.0; shift = 0 }

let create system (domain : Xen.Domain.t) (app : Workloads.App.t) ~threads =
  let nodes = Numa.Topology.node_count system.Xen.System.topo in
  let frame_bytes = Memory.Machine.frame_bytes system.Xen.System.machine in
  let total_pages = max (threads + 1) (app.Workloads.App.footprint_mb * 1024 * 1024 / frame_bytes) in
  let shared_pages =
    max 1 (int_of_float (app.Workloads.App.shared_bytes_fraction *. float_of_int total_pages))
  in
  let private_pages = max 1 ((total_pages - shared_pages) / threads) in
  let vframes = shared_pages + (threads * private_pages) + 64 in
  let gib_frames = max 1 (1024 * 1024 * 1024 / frame_bytes) in
  let first_fresh = min gib_frames (domain.Xen.Domain.mem_frames / 4) in
  let pool = Guest.Pfn_pool.create ~frames:domain.Xen.Domain.mem_frames ~first_fresh () in
  let gpt = Guest.Gpt.create ~frames:vframes in
  let alloc () = Guest.Pfn_pool.alloc pool in
  let shared =
    build_region system gpt ~alloc domain ~vfn0:0 ~pages:shared_pages
      ~weights:(zipf_weights ~pages:shared_pages ~s:app.Workloads.App.zipf_s)
      ~cpu:domain.Xen.Domain.vcpu_pin.(0) ~nodes
  in
  let privates =
    Array.init threads (fun t ->
        build_region system gpt ~alloc domain
          ~vfn0:(shared_pages + (t * private_pages))
          ~pages:private_pages
          ~weights:(uniform_weights ~pages:private_pages)
          ~cpu:domain.Xen.Domain.vcpu_pin.(t) ~nodes)
  in
  (* The pool hands region pages out from first_fresh up. *)
  let pfn_base = first_fresh in
  let top region = Array.fold_left Int.max pfn_base region.pfns in
  let span = 1 + Array.fold_left (fun acc r -> Int.max acc (top r)) (top shared) privates - pfn_base in
  let pfn_owner = Array.make span (-1) in
  let pfn_slot = Array.make span 0 in
  let index owner region =
    Array.iteri
      (fun i pfn ->
        pfn_owner.(pfn - pfn_base) <- owner;
        pfn_slot.(pfn - pfn_base) <- i)
      region.pfns
  in
  index 0 shared;
  Array.iteri (fun t region -> index (t + 1) region) privates;
  {
    app;
    machine = system.Xen.System.machine;
    p2m = domain.Xen.Domain.p2m;
    pool;
    shared;
    privates;
    pfn_base;
    pfn_owner;
    pfn_slot;
    sample_seen = Bytes.make shared_pages '\000';
    sample_touched = Array.make 128 0;
    sample_pfns = Array.make (128 + (8 * threads)) 0;
    sample_count = 0;
    sample_scratch = Array.make nodes 0.0;
    shared_zipf = Sim.Rng.zipf_sampler ~n:shared_pages ~s:app.Workloads.App.zipf_s;
    private_sample_cursor = 0;
    phase = 0;
    migrations = 0;
  }

(* Popularity of page [i] under the region's current rotation. *)
let eff_weight region i =
  (* [i] and [shift] are both in [\[0, pages)]. *)
  let j = i - region.shift in
  region.weights.(if j < 0 then j + Array.length region.weights else j)

(* Re-aggregate per-node popularity from the pages' nodes under the
   current rotation, in page order (replicated pages keep serving their
   read share locally). *)
let reaggregate region ~read_fraction =
  Array.fill region.node_weight 0 (Array.length region.node_weight) 0.0;
  region.replicated_local <- 0.0;
  Array.iteri
    (fun i node ->
      let w = eff_weight region i in
      if Bytes.get region.replicated i <> '\000' then begin
        region.node_weight.(node) <- region.node_weight.(node) +. (w *. (1.0 -. read_fraction));
        region.replicated_local <- region.replicated_local +. (w *. read_fraction)
      end
      else region.node_weight.(node) <- region.node_weight.(node) +. w)
    region.page_node

let rotate t ~phase =
  phase <> t.phase
  && begin
       t.phase <- phase;
       let region = t.shared in
       let pages = Array.length region.pfns in
       let shift = phase * (pages / t.app.Workloads.App.phases) mod pages in
       if shift <> region.shift then begin
         region.shift <- shift;
         reaggregate region ~read_fraction:t.app.Workloads.App.read_fraction
       end;
       true
     end

(* Hot-page samples for Carrefour: the top of the shared region's
   popularity distribution, a rotating window of each thread's private
   pages, and — during a burst — the victim's hammered pages.
   Samples are pushed straight into the system component's heat table
   (which copies on first sight, accumulates in place after) from one
   reusable scratch array; the fed pfns are remembered in
   [t.sample_pfns] for the placement refresh. *)
let feed_samples t sys ~rng ~src_shared ~shared_total ~burst_total ~thread_accesses ~finish
    ~thread_node ~burst_victim ~burst_source =
  let nodes = Array.length src_shared in
  let scratch = t.sample_scratch in
  let read_fraction = t.app.Workloads.App.read_fraction in
  t.sample_count <- 0;
  let push pfn =
    Policies.Carrefour.System_component.record_sample sys ~pfn ~node_accesses:scratch
      ~read_fraction;
    t.sample_pfns.(t.sample_count) <- pfn;
    t.sample_count <- t.sample_count + 1
  in
  if shared_total > 0.0 then begin
    let pages = Array.length t.shared.pfns in
    (* IBS-style sampling: pages are drawn with probability proportional
       to their access frequency, so hot pages dominate the table but
       every accessed page is eventually observed. *)
    let seen = t.sample_seen in
    let touched = ref 0 in
    let emit rank =
      let i = (t.shared.shift + rank) mod pages in
      if Bytes.get seen i = '\000' then begin
        Bytes.set seen i '\001';
        t.sample_touched.(!touched) <- i;
        incr touched;
        let w = t.shared.weights.(rank) in
        for n = 0 to nodes - 1 do
          scratch.(n) <- src_shared.(n) *. w
        done;
        push t.shared.pfns.(i)
      end
    in
    for rank = 0 to min 32 pages - 1 do
      emit rank
    done;
    for _ = 1 to min 96 pages do
      emit (Sim.Rng.zipf rng t.shared_zipf)
    done;
    for j = 0 to !touched - 1 do
      Bytes.set seen t.sample_touched.(j) '\000'
    done
  end;
  let threads = Array.length t.privates in
  for th = 0 to threads - 1 do
    if finish.(th) < 0.0 then begin
      let region = t.privates.(th) in
      let pages = Array.length region.pfns in
      let per_page =
        (* Uniform accesses of the owner over its private pages. *)
        let own = 1.0 -. t.app.Workloads.App.master_bias in
        own *. thread_accesses.(th) /. float_of_int pages
      in
      let k = min 8 pages in
      for j = 0 to k - 1 do
        let i = (t.private_sample_cursor + j) mod pages in
        Array.fill scratch 0 nodes 0.0;
        scratch.(thread_node.(th)) <- per_page;
        (* During a burst the source thread hammers the victim's pages:
           a single dominant remote node, Carrefour's migration bait. *)
        if th = burst_victim && burst_source >= 0 then
          scratch.(thread_node.(burst_source)) <-
            scratch.(thread_node.(burst_source))
            +. (burst_total /. float_of_int pages *. 8.0);
        push region.pfns.(i)
      done
    end
  done;
  t.private_sample_cursor <- t.private_sample_cursor + 8

(* The node backing guest page [pfn], -1 when it is unmapped. *)
let pfn_node t pfn =
  let mfn = Xen.P2m.mfn_of t.p2m pfn in
  if mfn < 0 then -1 else Memory.Machine.node_of_mfn t.machine mfn

(* Move page [i]'s popularity from its cached node to [node] (only the
   write share of a replicated page); returns whether the node
   changed. *)
let move_page region i node ~read_fraction =
  let old_node = region.page_node.(i) in
  old_node <> node
  && begin
       let w = eff_weight region i in
       let moved =
         if Bytes.get region.replicated i <> '\000' then w *. (1.0 -. read_fraction) else w
       in
       region.node_weight.(old_node) <- region.node_weight.(old_node) -. moved;
       region.node_weight.(node) <- region.node_weight.(node) +. moved;
       region.page_node.(i) <- node;
       true
     end

(* Re-resolve one page's cached node and, given Carrefour, its
   replication status; untracked and unmapped pages are skipped.
   Returns whether the page's node changed. *)
let refresh_page t carrefour pfn =
  let i = pfn - t.pfn_base in
  let owner = if i >= 0 && i < Array.length t.pfn_owner then t.pfn_owner.(i) else -1 in
  let node = if owner >= 0 then pfn_node t pfn else -1 in
  node >= 0
  && begin
       let region = if owner = 0 then t.shared else t.privates.(owner - 1) in
       let i = t.pfn_slot.(i) and read_fraction = t.app.Workloads.App.read_fraction in
       (match carrefour with
       | None -> ()
       | Some sys ->
           (* Replication status change: the read share of the page's
              popularity moves between the home node and the
              everywhere-local pool. *)
           let replicated_now = Policies.Carrefour.System_component.is_replicated sys pfn in
           if replicated_now <> (Bytes.get region.replicated i <> '\000') then begin
             let w = eff_weight region i in
             (* [x -. (-. m)] is bitwise [x +. m]: IEEE subtraction
                adds the negation. *)
             let moved = if replicated_now then w *. read_fraction else -.(w *. read_fraction) in
             let home = region.page_node.(i) in
             region.node_weight.(home) <- region.node_weight.(home) -. moved;
             region.replicated_local <- region.replicated_local +. moved;
             Bytes.set region.replicated i (if replicated_now then '\001' else '\000')
           end);
       move_page region i node ~read_fraction
     end

let refresh_placement t carrefour =
  Obs.Profile.span Obs.Profile.Guest_refresh (fun () ->
      for s = 0 to t.sample_count - 1 do
        if refresh_page t carrefour t.sample_pfns.(s) then t.migrations <- t.migrations + 1
      done)

let update_page_node t pfn = ignore (refresh_page t None pfn)

let refresh_region t region =
  Array.iteri
    (fun i pfn ->
      let node = pfn_node t pfn in
      if node >= 0 then region.page_node.(i) <- node)
    region.pfns;
  reaggregate region ~read_fraction:t.app.Workloads.App.read_fraction

let refresh_regions t =
  Obs.Profile.span Obs.Profile.Guest_refresh (fun () ->
      refresh_region t t.shared;
      Array.iter (refresh_region t) t.privates)
