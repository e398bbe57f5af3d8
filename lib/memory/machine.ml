type t = {
  topo : Numa.Topology.t;
  page_scale : int;
  frames_per_node : int;
  node_shift : int;  (* log2 frames_per_node when a power of two, else -1 *)
  total : int;
  pools : Buddy.t array;
  mutable fallback_cursor : int;
  mutable alloc_veto : (node:int -> order:int -> bool) option;
      (* Fault-injection hook: a vetoed allocation fails as if the
         node's pool were exhausted.  Frees are never vetoed, so frame
         accounting stays exact under any veto sequence. *)
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ?(page_scale = 1) topo =
  if not (is_power_of_two page_scale) then
    invalid_arg "Machine.create: page_scale must be a positive power of two";
  let frame_bytes = Page.size_4k * page_scale in
  let mem = Numa.Topology.mem_per_node topo in
  if mem mod frame_bytes <> 0 then
    invalid_arg "Machine.create: page_scale does not divide node memory";
  let frames_per_node = mem / frame_bytes in
  let pools =
    Array.init (Numa.Topology.node_count topo) (fun n ->
        Buddy.create ~base:(n * frames_per_node) ~frames:frames_per_node)
  in
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
  let node_shift = if is_power_of_two frames_per_node then log2 frames_per_node else -1 in
  { topo; page_scale; frames_per_node; node_shift;
    total = frames_per_node * Numa.Topology.node_count topo; pools; fallback_cursor = 0;
    alloc_veto = None }

let set_alloc_veto t veto = t.alloc_veto <- veto

let page_scale t = t.page_scale
let frame_bytes t = Page.size_4k * t.page_scale
let frames_per_node t = t.frames_per_node
let total_frames t = t.total

let node_of_mfn t mfn =
  if mfn < 0 || mfn >= t.total then invalid_arg "Machine.node_of_mfn: out of range";
  if t.node_shift >= 0 then mfn lsr t.node_shift else mfn / t.frames_per_node

let log2_ceil n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  go 0 1

let scaled_order t native_order =
  let scale_order = log2_ceil t.page_scale in
  max 0 (native_order - scale_order)

let order_1g t = scaled_order t Page.order_1g
let order_2m t = scaled_order t Page.order_2m

let alloc_on t ~node ~order =
  assert (node >= 0 && node < Array.length t.pools);
  if not (Numa.Topology.node_online t.topo node) then None
  else begin
    match t.alloc_veto with
    | Some veto when veto ~node ~order -> None
    | Some _ | None -> Buddy.alloc t.pools.(node) ~order
  end

let alloc_frame t ~node = alloc_on t ~node ~order:0

let alloc_frame_fallback t ~prefer =
  match alloc_frame t ~node:prefer with
  | Some mfn -> Some mfn
  | None ->
      let nodes = Numa.Topology.node_count t.topo in
      let rec try_next attempts =
        if attempts = 0 then None
        else begin
          let node = t.fallback_cursor mod nodes in
          t.fallback_cursor <- (t.fallback_cursor + 1) mod nodes;
          if node = prefer || not (Numa.Topology.node_online t.topo node) then
            try_next (attempts - 1)
          else
            match alloc_frame t ~node with
            | Some mfn -> Some mfn
            | None -> try_next (attempts - 1)
        end
      in
      try_next (2 * nodes)

let split_block t ~mfn ~order =
  let node = node_of_mfn t mfn in
  Buddy.split_allocation t.pools.(node) ~base:mfn ~order

let free t ~mfn ~order =
  let node = node_of_mfn t mfn in
  let last = mfn + (1 lsl order) - 1 in
  if node_of_mfn t last <> node then invalid_arg "Machine.free: block spans nodes";
  Buddy.free t.pools.(node) ~base:mfn ~order

let free_run t ~mfn ~frames =
  if frames > 0 then begin
    let node = node_of_mfn t mfn in
    if node_of_mfn t (mfn + frames - 1) <> node then invalid_arg "Machine.free_run: run spans nodes";
    Buddy.free_run t.pools.(node) ~base:mfn ~frames
  end

let free_frames_on t node =
  assert (node >= 0 && node < Array.length t.pools);
  Buddy.free_frames t.pools.(node)

let free_frames t = Array.fold_left (fun acc pool -> acc + Buddy.free_frames pool) 0 t.pools

(* ------------------------------------------------------------------ *)
(* RAS page / node offlining                                           *)
(* ------------------------------------------------------------------ *)

let offline_mfn t mfn =
  let node = node_of_mfn t mfn in
  match Buddy.offline_range t.pools.(node) ~base:mfn ~frames:1 with
  | 1, 0 -> `Offlined
  | 0, 1 -> `Pending
  | _ -> `Already

let offline_node t node =
  assert (node >= 0 && node < Array.length t.pools);
  Buddy.offline_range t.pools.(node) ~base:(node * t.frames_per_node)
    ~frames:t.frames_per_node

let online_node t node =
  assert (node >= 0 && node < Array.length t.pools);
  Buddy.online_range t.pools.(node) ~base:(node * t.frames_per_node)
    ~frames:t.frames_per_node

let is_offlined t mfn =
  mfn >= 0 && mfn < total_frames t
  && Buddy.is_offlined t.pools.(mfn / t.frames_per_node) ~frame:mfn

let offlined_frames_on t node =
  assert (node >= 0 && node < Array.length t.pools);
  Buddy.offlined_frames t.pools.(node)

let offlined_frames t =
  Array.fold_left (fun acc pool -> acc + Buddy.offlined_frames pool) 0 t.pools

