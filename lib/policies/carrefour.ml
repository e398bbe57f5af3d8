type sample = {
  pfn : Memory.Page.pfn;
  node_accesses : float array;
  read_fraction : float;
}

(* Sum of one row, in ascending index order — the same operation
   sequence as [Array.fold_left ( +. ) 0.0] over a per-page spread, so
   thresholds computed from a row bit-match the historical sample
   path.  The heat table caches it per row ([sums]). *)
let row_total counts ~base ~nodes =
  let s = ref 0.0 in
  for j = 0 to nodes - 1 do
    s := !s +. Array.unsafe_get counts (base + j)
  done;
  !s

(* Index of the row's first largest count: the node that accesses the
   page most.  Cached per row as [best], next to [sums]. *)
let row_argmax (counts : float array) ~base ~nodes =
  let best = ref 0 in
  for j = 1 to nodes - 1 do
    if Array.unsafe_get counts (base + j) > Array.unsafe_get counts (base + !best) then best := j
  done;
  !best

(* Flat hot-page readout: row [i] of [counts] (length [nodes]) is the
   per-node access spread of [pfns.(i)].  One readout is a few arrays
   instead of thousands of boxed samples, which is what makes the
   per-period user-component work cheap. *)
type hot = {
  nodes : int;
  count : int;
  pfns : int array;
  counts : float array;  (* count * nodes, row-major *)
  sums : float array;  (* row_total of each row, bit for bit *)
  best : int array;  (* row_argmax of each row *)
  node : int array;  (* node backing each row's page, -1 when unmapped *)
  reads : float array;  (* read-weighted heat: reads / keys = read fraction *)
  keys : float array;
      (* ranking key per row (the heat table's accumulated total);
         rows need not arrive sorted — decide ranks by (key desc,
         pfn asc, row asc) *)
  scale : float;
      (* power of two every value of counts/sums/reads/keys carries:
         the heat table's decay scale, 1.0 in [hot_of_samples] *)
}

(* The heat table's [read_fraction_of_row]: 1.0 for a row that never
   saw an access. *)
let read_fraction hot i = if hot.keys.(i) > 0.0 then hot.reads.(i) /. hot.keys.(i) else 1.0

let hot_of_samples ~node_of samples =
  let nodes = List.fold_left (fun m s -> max m (Array.length s.node_accesses)) 0 samples in
  let count = List.length samples in
  let pfns = Array.make count 0 in
  let counts = Array.make (count * nodes) 0.0 in
  let sums = Array.make count 0.0 in
  let best = Array.make count 0 in
  let node = Array.make count 0 in
  let reads = Array.make count 0.0 in
  let keys = Array.make count 0.0 in
  List.iteri
    (fun i s ->
      pfns.(i) <- s.pfn;
      Array.blit s.node_accesses 0 counts (i * nodes) (Array.length s.node_accesses);
      let key = Array.fold_left ( +. ) 0.0 s.node_accesses in
      sums.(i) <- row_total counts ~base:(i * nodes) ~nodes;
      best.(i) <- row_argmax counts ~base:(i * nodes) ~nodes;
      node.(i) <- node_of s.pfn;
      reads.(i) <- s.read_fraction *. key;
      keys.(i) <- key)
    samples;
  { nodes; count; pfns; counts; sums; best; node; reads; keys; scale = 1.0 }

(* Rank order over readout rows: key descending, pfn ascending, then
   row ascending.  The heat table never holds a pfn twice, so the row
   tie-break only decides between duplicate pfns of a synthetic
   readout; it makes the order strict, and a strict order has exactly
   one sorted arrangement whichever algorithm produces it. *)
let before (keys : float array) (pfns : int array) a b =
  let ka = Array.unsafe_get keys a and kb = Array.unsafe_get keys b in
  ka > kb
  || ka = kb
     &&
     let pa = Array.unsafe_get pfns a and pb = Array.unsafe_get pfns b in
     pa < pb || (pa = pb && a < b)

(* Reorder [order.(lo) .. order.(hi)] so that its first [len] slots
   hold its [len] best-ranked rows, in rank order when [sorted], without
   ranking the rest: a quickselect narrows to the boundary, then a
   quicksort ranks the prefix.  Both use a median-of-three Hoare
   partition with inline comparisons and finish with insertion sort
   below 12 elements.  The user component walks candidates only until
   its migration budget is spent, so it ranks a budget-sized prefix, not
   every candidate; its hot-page cap only needs the split. *)
let rank_prefix ~sorted keys pfns order ~lo ~hi ~len =
  let before = before keys pfns in
  let swap i j =
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  in
  let insertion lo hi =
    for i = lo + 1 to hi do
      let x = order.(i) in
      let j = ref (i - 1) in
      while !j >= lo && before x order.(!j) do
        order.(!j + 1) <- order.(!j);
        decr j
      done;
      order.(!j + 1) <- x
    done
  in
  (* Afterwards [lo .. j] ranks before [i .. hi], and anything between
     is the pivot. *)
  let partition lo hi =
    let mid = (lo + hi) / 2 in
    if before order.(mid) order.(lo) then swap mid lo;
    if before order.(hi) order.(mid) then begin
      swap hi mid;
      if before order.(mid) order.(lo) then swap mid lo
    end;
    let pivot = order.(mid) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while before order.(!i) pivot do incr i done;
      while before pivot order.(!j) do decr j done;
      if !i <= !j then begin
        swap !i !j;
        incr i;
        decr j
      end
    done;
    (!i, !j)
  in
  let rec qsort lo hi =
    if hi - lo < 12 then insertion lo hi
    else begin
      let i, j = partition lo hi in
      qsort lo j;
      qsort i hi
    end
  in
  (* Split [lo .. hi] at [b]: every row before [b] ranks before every
     row from [b] on. *)
  let b = lo + len in
  let rec select lo hi =
    if lo < b && b <= hi then
      if hi - lo < 12 then insertion lo hi
      else begin
        let i, j = partition lo hi in
        if b <= j then select lo j else if b > i then select i hi
      end
  in
  select lo hi;
  if sorted then qsort lo (b - 1)

(* Ranking workspace for [User_component.decide]: a candidate-row buffer
   and the hot-page cap's row buffer, each grown to the widest readout
   seen and reused every period. *)
type workspace = { mutable sel : int array; mutable top : int array }

let workspace () = { sel = [||]; top = [||] }

let grow buf n = if Array.length buf < n then Array.make (max n (2 * Array.length buf)) 0 else buf

module System_component = struct
  (* Structure-of-arrays heat table.  [slot] direct-maps a pfn to its
     row (+1, 0 = absent); rows [0 .. live-1] are the tracked pages, in
     no particular order.  [totals] carries the incrementally
     accumulated heat (the historical [heat.total] field): it can
     differ from the row sum in the last ulp, and it is what keys the
     ranking, so it is stored rather than recomputed.  [sums]
     caches the row sum itself, always bit-equal to [row_total] of the
     row, and [best] its [row_argmax]: [record_sample] recomputes both
     for the rows it touches, and the user component reads them
     instead of scanning every row every period.

     [node] is the node backing each row's page, -1 while it is
     unmapped.  A row takes it from the P2M when it is inserted; from
     then on the P2M update stream keeps it current ([on_p2m_update]),
     so the user component reads a column instead of resolving every
     candidate's pfn through the P2M and the frame table each period.

     Decay by exponent.  Every stored value is its logical value times
     [scale] = 2^[exp], and halving the whole table is [exp + 1]: the
     stored values stay put.  Multiplying by a power of two is exact,
     and so are sums, products and comparisons of values that all carry
     the same power-of-two factor, so every operation on the scaled
     table gives the scaled result of the same operation on the eagerly
     halved one, bit for bit.  Samples enter as [a *. scale]; the
     readout carries the scale out with the values.  Three things keep
     the equivalence exact:
     - Halving is exact unless the logical value is below 2^-1021,
       where the result can be subnormal and round.  [least] holds, per
       row, the smallest non-zero magnitude among the row's counts and
       read heat; a row whose [least] is that small takes the stepwise
       path ([halve_tiny]): each such value is unscaled, halved with
       the eager rounding and rescaled.  So the stored value is always
       a float times 2^[exp], exactly.
     - The row sum after halving is the scaled sum before it, so decay
       keeps [sums] and [best] as they are — the eager decay kept
       [best] too — and sets [totals] to the sum.  Only [halve_tiny]
       recomputes the sum.
     - [exp] returns to 0 every [renormalise_at] periods: every value
       is divided by [scale], which is exact because the quotient is a
       float.  Logical values below 2^(1023 - renormalise_at) cannot
       overflow the scaled table.

     Dropped rows are swap-removed: the last row fills the hole.  No
     consumer depends on row order: [User_component.decide] ranks by
     the strict (key, pfn) order and is invariant under row
     permutations. *)
  type t = {
    system : Xen.System.t;
    domain : Xen.Domain.t;
    nodes : int;
    mutable slot : int array;
    mutable pfns : int array;
    mutable counts : float array;  (* cap * nodes, row-major *)
    mutable reads : float array;
    mutable totals : float array;
    mutable sums : float array;
    mutable best : int array;
    mutable node : int array;
    mutable least : float array;  (* smallest non-zero |count| or |read|, infinity if none *)
    mutable live : int;
    mutable exp : int;
    mutable scale : float;  (* 2^exp *)
    replicas : (Memory.Page.pfn, Memory.Page.mfn list) Hashtbl.t;
    workspace : workspace;
  }

  let initial_rows = 1024
  let renormalise_at = 64

  let create system domain =
    let nodes = Numa.Topology.node_count system.Xen.System.topo in
    {
      system;
      domain;
      nodes;
      slot = Array.make 1024 0;
      pfns = Array.make initial_rows 0;
      counts = Array.make (initial_rows * nodes) 0.0;
      reads = Array.make initial_rows 0.0;
      totals = Array.make initial_rows 0.0;
      sums = Array.make initial_rows 0.0;
      best = Array.make initial_rows 0;
      node = Array.make initial_rows 0;
      least = Array.make initial_rows 0.0;
      live = 0;
      exp = 0;
      scale = 1.0;
      replicas = Hashtbl.create 64;
      workspace = workspace ();
    }

  let ensure_slot t pfn =
    let n = Array.length t.slot in
    if pfn >= n then begin
      let n' = ref (n * 2) in
      while pfn >= !n' do
        n' := !n' * 2
      done;
      let slot = Array.make !n' 0 in
      Array.blit t.slot 0 slot 0 n;
      t.slot <- slot
    end

  let ensure_row t =
    let cap = Array.length t.pfns in
    if t.live >= cap then begin
      let cap' = cap * 2 in
      let grow_f a len' =
        let a' = Array.make len' 0.0 in
        Array.blit a 0 a' 0 (Array.length a);
        a'
      in
      let grow_i a =
        let a' = Array.make cap' 0 in
        Array.blit a 0 a' 0 cap;
        a'
      in
      t.pfns <- grow_i t.pfns;
      t.best <- grow_i t.best;
      t.node <- grow_i t.node;
      t.counts <- grow_f t.counts (cap' * t.nodes);
      t.reads <- grow_f t.reads cap';
      t.totals <- grow_f t.totals cap';
      t.sums <- grow_f t.sums cap';
      t.least <- grow_f t.least cap'
    end

  (* Recompute row [r]'s cached sum, argmax and [least]. *)
  let refresh t r =
    let nodes = t.nodes in
    let base = r * nodes in
    t.sums.(r) <- row_total t.counts ~base ~nodes;
    t.best.(r) <- row_argmax t.counts ~base ~nodes;
    let least = ref (Float.abs t.reads.(r)) in
    if not (!least > 0.0) then least := infinity;
    for j = base to base + nodes - 1 do
      let m = Float.abs t.counts.(j) in
      if m > 0.0 && m < !least then least := m
    done;
    t.least.(r) <- !least

  (* The stepwise path of a row holding a value below 2^-1021
     logically: such values are halved as floats — unscaled, halved
     with the eager rounding, rescaled one power higher — and the rest
     of the row halves exactly by the exponent bump alone.  The sum is
     recomputed from the new counts; [best] is kept, as the eager decay
     kept it. *)
  let halve_tiny t r =
    let e = t.exp in
    let tiny = Float.ldexp 1.0 (e - 1021) in
    let step x =
      if x <> 0.0 && Float.abs x < tiny then Float.ldexp (Float.ldexp x (-e) /. 2.0) (e + 1) else x
    in
    let base = r * t.nodes in
    for j = base to base + t.nodes - 1 do
      t.counts.(j) <- step t.counts.(j)
    done;
    t.reads.(r) <- step t.reads.(r);
    let best = t.best.(r) in
    refresh t r;
    t.best.(r) <- best

  (* Move row [src] into row [dst] (whose page has left the table). *)
  let move t ~src ~dst =
    let nodes = t.nodes in
    Array.blit t.counts (src * nodes) t.counts (dst * nodes) nodes;
    t.pfns.(dst) <- t.pfns.(src);
    t.reads.(dst) <- t.reads.(src);
    t.totals.(dst) <- t.totals.(src);
    t.sums.(dst) <- t.sums.(src);
    t.best.(dst) <- t.best.(src);
    t.node.(dst) <- t.node.(src);
    t.least.(dst) <- t.least.(src);
    t.slot.(t.pfns.(dst)) <- dst + 1

  (* Divide the scale out of every value and restart the exponent. *)
  let renormalise t =
    let inv = Float.ldexp 1.0 (-t.exp) in
    for i = 0 to (t.live * t.nodes) - 1 do
      t.counts.(i) <- t.counts.(i) *. inv
    done;
    for r = 0 to t.live - 1 do
      t.reads.(r) <- t.reads.(r) *. inv;
      t.totals.(r) <- t.totals.(r) *. inv;
      t.sums.(r) <- t.sums.(r) *. inv;
      t.least.(r) <- t.least.(r) *. inv
    done;
    t.exp <- 0;
    t.scale <- 1.0

  (* Halve the table: drop the rows whose halved sum falls below 1.0,
     i.e. whose stored sum is below the next scale, and reset each
     survivor's total to its sum.  A dropped row is replaced by the last
     one, which is tested in its turn. *)
  let decay t =
    let tiny = Float.ldexp 1.0 (t.exp - 1021) in
    let next = Float.ldexp 1.0 (t.exp + 1) in
    let least = t.least and sums = t.sums and totals = t.totals in
    let r = ref 0 in
    while !r < t.live do
      let i = !r in
      if Array.unsafe_get least i < tiny then halve_tiny t i;
      let sum = Array.unsafe_get sums i in
      if sum < next then begin
        t.slot.(t.pfns.(i)) <- 0;
        let last = t.live - 1 in
        if i < last then move t ~src:last ~dst:i;
        t.live <- last
      end
      else begin
        Array.unsafe_set totals i sum;
        incr r
      end
    done;
    t.exp <- t.exp + 1;
    t.scale <- next;
    if t.exp >= renormalise_at then renormalise t

  let collapse t ~pfn =
    match Hashtbl.find_opt t.replicas pfn with
    | None -> ()
    | Some mfns ->
        List.iter (fun mfn -> Memory.Machine.free t.system.Xen.System.machine ~mfn ~order:0) mfns;
        Hashtbl.remove t.replicas pfn

  let begin_epoch t = Obs.Profile.span Obs.Profile.Carrefour_decay (fun () -> decay t)

  let node_of t pfn =
    let p2m = t.domain.Xen.Domain.p2m in
    let mfn = if pfn < Xen.P2m.frames p2m then Xen.P2m.mfn_of p2m pfn else -1 in
    if mfn < 0 then -1 else Memory.Machine.node_of_mfn t.system.Xen.System.machine mfn

  (* Row of [pfn], -1 when the table does not track it. *)
  let row_of t pfn = if pfn < Array.length t.slot then t.slot.(pfn) - 1 else -1

  let set_node t pfn node =
    let r = row_of t pfn in
    if r >= 0 then t.node.(r) <- node

  (* Splintering and promotion move no frame, so no row's node
     changes. *)
  let on_p2m_update t (u : Xen.P2m.update) =
    let machine = t.system.Xen.System.machine in
    match u with
    | Xen.P2m.Set { pfn; mfn; _ } -> set_node t pfn (Memory.Machine.node_of_mfn machine mfn)
    | Xen.P2m.Cleared { pfn } -> set_node t pfn (-1)
    | Xen.P2m.Superpage_mapped { pfn; mfn; _ } ->
        for k = 0 to Xen.P2m.sp_frames t.domain.Xen.Domain.p2m - 1 do
          set_node t (pfn + k) (Memory.Machine.node_of_mfn machine (mfn + k))
        done
    | Xen.P2m.Splintered _ | Xen.P2m.Promoted _ -> ()

  let iter_nodes t f =
    for r = 0 to t.live - 1 do
      f t.pfns.(r) t.node.(r)
    done

  let record_sample t ~pfn ~node_accesses ~read_fraction =
    (* Any write to a replicated page invalidates its replicas:
       the copies would otherwise go stale.  This write-collapse
       thrashing is what makes replication marginal on read-mostly
       (but not read-only) workloads — the paper's reason for
       discarding the heuristic. *)
    if read_fraction < 0.999 && Hashtbl.length t.replicas > 0 && Hashtbl.mem t.replicas pfn then
      collapse t ~pfn;
    ensure_slot t pfn;
    let nodes = t.nodes and scale = t.scale in
    (* Only the first [nodes] entries are stored, so only they count
       toward the heat. *)
    let n = min (Array.length node_accesses) nodes in
    let added = ref 0.0 in
    for j = 0 to n - 1 do
      added := !added +. node_accesses.(j)
    done;
    let added = !added in
    let r = t.slot.(pfn) - 1 in
    let r =
      if r >= 0 then begin
        let base = r * nodes in
        for j = 0 to n - 1 do
          t.counts.(base + j) <- t.counts.(base + j) +. (node_accesses.(j) *. scale)
        done;
        t.reads.(r) <- t.reads.(r) +. (read_fraction *. added *. scale);
        t.totals.(r) <- t.totals.(r) +. (added *. scale);
        r
      end
      else begin
        ensure_row t;
        let r = t.live in
        let base = r * nodes in
        Array.fill t.counts base nodes 0.0;
        for j = 0 to n - 1 do
          t.counts.(base + j) <- node_accesses.(j) *. scale
        done;
        t.pfns.(r) <- pfn;
        t.node.(r) <- node_of t pfn;
        t.reads.(r) <- read_fraction *. added *. scale;
        t.totals.(r) <- added *. scale;
        t.slot.(pfn) <- r + 1;
        t.live <- r + 1;
        r
      end
    in
    refresh t r

  type metrics = {
    controller_util : float array;
    max_link_util : float;
    imbalance : float;
    hot_pages : hot;
  }

  (* Readout in table order, no ranking: the user component ranks only
     the candidate rows it can still act on, which is far cheaper than
     ranking the whole table every period.  The row arrays ALIAS the
     live table — they may be longer than [count] and must not outlive
     the next table mutation (decay/sample), which is fine for the
     immediate decide-and-act consumer and allocates nothing per row.
     The values keep the table's scale, which the readout carries. *)
  let read_metrics t ~counters =
    let hot =
      {
        nodes = t.nodes;
        count = t.live;
        pfns = t.pfns;
        counts = t.counts;
        sums = t.sums;
        best = t.best;
        node = t.node;
        reads = t.reads;
        keys = t.totals;
        scale = t.scale;
      }
    in
    let link_util = Numa.Counters.last_link_utilisation counters in
    {
      controller_util = Numa.Counters.last_controller_utilisation counters;
      max_link_util = Array.fold_left Float.max 0.0 link_util;
      imbalance = Numa.Counters.imbalance counters;
      hot_pages = hot;
    }

  let workspace t = t.workspace

  let is_replicated t pfn = Hashtbl.length t.replicas > 0 && Hashtbl.mem t.replicas pfn

  (* Replication: hold one frame per other node and charge the copies;
     the page itself keeps its P2M entry (a real implementation would
     need per-vCPU translations, which is exactly why the paper's Xen
     port discards the heuristic). *)
  let replicate t ~pfn =
    if Hashtbl.mem t.replicas pfn then false
    else
      match Internal.node_of_pfn t.system t.domain pfn with
      | None -> false
      | Some home ->
          let machine = t.system.Xen.System.machine in
          let topo = t.system.Xen.System.topo in
          let frames = ref [] in
          let ok = ref true in
          for node = 0 to Numa.Topology.node_count topo - 1 do
            (* Offline nodes get no replica: readers there are gone. *)
            if node <> home && Numa.Topology.node_online topo node && !ok then begin
              match Memory.Machine.alloc_frame machine ~node with
              | Some mfn -> frames := mfn :: !frames
              | None -> ok := false
            end
          done;
          if not !ok then begin
            List.iter (fun mfn -> Memory.Machine.free machine ~mfn ~order:0) !frames;
            false
          end
          else begin
            let costs = t.system.Xen.System.costs in
            let bytes = float_of_int (Memory.Machine.frame_bytes machine) in
            let copies = float_of_int (List.length !frames) in
            Xen.Domain.charge t.domain Xen.Domain.Migrate
              (copies *. (costs.Xen.Costs.page_migrate_fixed +. (bytes *. costs.Xen.Costs.copy_byte)));
            Hashtbl.replace t.replicas pfn !frames;
            true
          end

  let tracked_pages t = t.live
end

module User_component = struct
  type config = {
    mc_threshold : float;
    ic_threshold : float;
    dominant_fraction : float;
    min_accesses : float;
    migration_budget : int;
    max_hot_pages : int;
    enable_replication : bool;
    replication_read_threshold : float;
    min_reader_nodes : int;
  }

  let default_config =
    {
      mc_threshold = 0.55;
      ic_threshold = 0.60;
      dominant_fraction = 0.80;
      min_accesses = 8.0;
      migration_budget = 4096;
      max_hot_pages = 16384;
      enable_replication = false;
      replication_read_threshold = 0.95;
      min_reader_nodes = 3;
    }

  type reason = Interleave | Locality | Replicate

  type action = { pfn : Memory.Page.pfn; dest : Numa.Topology.node; reason : reason }

  (* Nodes whose count tops 2% of the row's [total].  Both carry the
     readout's [scale]; the threshold is formed on the unscaled total
     and scaled back, so the test is the unscaled one bit for bit. *)
  let reader_nodes counts ~base ~nodes ~scale total =
    let threshold = 0.02 *. (total /. scale) *. scale in
    let readers = ref 0 in
    for j = 0 to nodes - 1 do
      if counts.(base + j) > threshold then incr readers
    done;
    !readers

  let decide ?(node_ok = fun (_ : int) -> true) config ~workspace ~rng ~metrics =
    let hot = metrics.System_component.hot_pages in
    let nodes = hot.nodes in
    (* The heat threshold in the readout's scale.  Every other test
       compares two scaled values or takes a ratio of two, so the
       scale cancels exactly. *)
    let min_accesses = config.min_accesses *. hot.scale in
    let utils = metrics.System_component.controller_util in
    let mean_util = Sim.Stats.mean utils in
    (* Per-period node masks: the per-row tests index them instead of
       searching a list or calling [node_ok]. *)
    let overloaded = Array.map (fun u -> u > config.mc_threshold && u > 1.25 *. mean_util) utils in
    let usable = Array.init nodes node_ok in
    (* Destinations must be in the dynamic node mask: a failing node is
       never a migration target (it may still be a source). *)
    let underloaded =
      Array.to_list utils
      |> List.mapi (fun n u -> (n, u))
      |> List.filter (fun (n, u) -> u < mean_util && node_ok n)
      |> List.map fst
      |> Array.of_list
    in
    let controllers_overloaded = Array.exists Fun.id overloaded && Array.length underloaded > 0 in
    let interconnect_saturated =
      metrics.System_component.max_link_util > config.ic_threshold
    in
    let actions = ref [] and seen = Hashtbl.create 64 and budget = ref config.migration_budget in
    let emit pfn dest reason =
      if !budget > 0 && not (Hashtbl.mem seen pfn) then begin
        Hashtbl.replace seen pfn ();
        decr budget;
        actions := { pfn; dest; reason } :: !actions
      end
    in
    if controllers_overloaded || interconnect_saturated then begin
      (* The hot-page cap: a readout of more than [max_hot_pages] rows
         contributes only its [max_hot_pages] best-ranked rows, split
         off unordered into [top.(0 .. n-1)] — the candidate set of a
         readout ranked and cut to the cap.  Within the cap, row [j] is
         candidate [j]. *)
      let capped = hot.count > config.max_hot_pages in
      let n = if capped then max 0 config.max_hot_pages else hot.count in
      let top =
        if capped then begin
          let top = grow workspace.top hot.count in
          workspace.top <- top;
          for i = 0 to hot.count - 1 do
            top.(i) <- i
          done;
          rank_prefix ~sorted:false hot.keys hot.pfns top ~lo:0 ~hi:(hot.count - 1) ~len:n;
          top
        end
        else workspace.top
      in
      (* Only rows clearing the heat threshold can act.  Qualification
         is pure — the walks only mutate [seen]/[budget] through [emit]
         — so each heuristic collects its candidate rows into [sel]
         first and ranks only what it walks.  The rank order is strict
         (key descending, pfn ascending, row ascending), so the ranked
         candidates are the candidate restriction of the fully sorted
         readout: emits, their order, and the random-node draws are
         exactly those of a walk over the full ranking. *)
      let sel = grow workspace.sel n in
      workspace.sel <- sel;
      (* Walk [sel.(0 .. k-1)] in rank order while budget remains,
         ranking one chunk at a time: a chunk is as many rows as can
         still emit — the remaining budget plus the pfns already seen,
         which are skipped for free — so one chunk usually ends the
         walk, and the next is ranked only when duplicate pfns skipped
         rows.  Returns the number of rows walked. *)
      let walk k f =
        let s = ref 0 and ranked = ref 0 in
        while !s < k && !budget > 0 do
          if !s = !ranked then begin
            let len = min (k - !ranked) (!budget + Hashtbl.length seen) in
            rank_prefix ~sorted:true hot.keys hot.pfns sel ~lo:!ranked ~hi:(k - 1) ~len;
            ranked := !ranked + len
          end;
          f sel.(!s);
          incr s
        done;
        !s
      in
      (* Interleave heuristic: hot pages sitting on an overloaded
         controller move to a random underloaded node. *)
      if controllers_overloaded then begin
        let k = ref 0 in
        for j = 0 to n - 1 do
          let i = if capped then Array.unsafe_get top j else j in
          let node = Array.unsafe_get hot.node i in
          if
            node >= 0
            && node < Array.length overloaded
            && Array.unsafe_get overloaded node
            && hot.sums.(i) >= min_accesses
          then begin
            sel.(!k) <- i;
            incr k
          end
        done;
        let walked = walk !k (fun i -> emit hot.pfns.(i) (Sim.Rng.pick rng underloaded) Interleave) in
        (* Each candidate takes one draw whether or not it emits, so the
           rows the walk never reached take theirs here, unranked: a
           draw is one [bits64] whatever the row, so the stream ends
           where a walk over every candidate would leave it. *)
        for _ = walked to !k - 1 do
          ignore (Sim.Rng.pick rng underloaded)
        done
      end;
      (* Under interconnect saturation: replicate hot read-only pages
         with many readers (when enabled), migrate single-remote-reader
         pages to their reader. *)
      if interconnect_saturated && !budget > 0 then begin
        let replicate_row i =
          config.enable_replication
          && hot.sums.(i) >= min_accesses
          && read_fraction hot i >= config.replication_read_threshold
          && reader_nodes hot.counts ~base:(i * nodes) ~nodes ~scale:hot.scale hot.sums.(i)
             >= config.min_reader_nodes
        in
        (* A page already on its dominant node, or unmapped, fails
           the first two tests: two int loads settle most rows. *)
        let locality_row i best =
          let sum = hot.sums.(i) in
          sum >= min_accesses
          && hot.counts.((i * nodes) + best) /. sum >= config.dominant_fraction
          && Array.unsafe_get usable best
        in
        let k = ref 0 in
        for j = 0 to n - 1 do
          let i = if capped then Array.unsafe_get top j else j in
          let node = Array.unsafe_get hot.node i and best = Array.unsafe_get hot.best i in
          if (node >= 0 && node <> best && locality_row i best) || replicate_row i then begin
            sel.(!k) <- i;
            incr k
          end
        done;
        ignore
          (walk !k (fun i ->
               if replicate_row i then emit hot.pfns.(i) 0 Replicate
               else emit hot.pfns.(i) hot.best.(i) Locality))
      end
    end;
    List.rev !actions
end

type report = {
  interleave_migrations : int;
  locality_migrations : int;
  replications : int;
  failed : int;
}

let run_epoch ~interleave_only ~migrate sys ~config ~rng ~counters =
  let metrics = System_component.read_metrics sys ~counters in
  let topo = sys.System_component.system.Xen.System.topo in
  let actions =
    Obs.Profile.span Obs.Profile.Carrefour_decide (fun () ->
        User_component.decide config ~rng ~metrics
          ~node_ok:(fun n -> Numa.Topology.node_online topo n)
          ~workspace:(System_component.workspace sys))
  in
  (* Migrating a replicated page first collapses its replicas. *)
  let do_migrate ~pfn ~node =
    System_component.collapse sys ~pfn;
    migrate ~pfn ~node
  in
  let interleave = ref 0 and locality = ref 0 and replications = ref 0 and failed = ref 0 in
  List.iter
    (fun (a : User_component.action) ->
      match a.reason with
      | (User_component.Replicate | User_component.Locality) when interleave_only ->
          (* Degraded mode: the circuit breaker only trusts the cheap
             interleave heuristic; locality/replication work is shed. *)
          ()
      | User_component.Replicate ->
          if System_component.replicate sys ~pfn:a.pfn then incr replications else incr failed
      | User_component.Interleave ->
          if do_migrate ~pfn:a.pfn ~node:a.dest then incr interleave else incr failed
      | User_component.Locality ->
          if do_migrate ~pfn:a.pfn ~node:a.dest then incr locality else incr failed)
    actions;
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr ~by:(List.length actions) "policies.carrefour.actions";
    Obs.Metrics.incr ~by:!interleave "policies.carrefour.interleave_migrations";
    Obs.Metrics.incr ~by:!locality "policies.carrefour.locality_migrations";
    Obs.Metrics.incr ~by:!replications "policies.carrefour.replications";
    Obs.Metrics.incr ~by:!failed "policies.carrefour.failed";
    Obs.Metrics.gauge "policies.carrefour.tracked_pages"
      (float_of_int (System_component.tracked_pages sys))
  end;
  {
    interleave_migrations = !interleave;
    locality_migrations = !locality;
    replications = !replications;
    failed = !failed;
  }
