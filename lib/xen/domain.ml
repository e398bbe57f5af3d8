type kind = Dom0 | DomU

type cost = Hypercall | Fault | Migrate | Pt_replica | Io | Release

(* One slot per cost in a float array, which stores its elements
   unboxed: a charge from inside this module allocates nothing. *)
type ledger = { time : float array; mutable faults : int }

type t = {
  id : int;
  name : string;
  kind : kind;
  vcpus : int;
  mem_frames : int;
  p2m : P2m.t;
  home_nodes : Numa.Topology.node array;
  vcpu_pin : int array;
  ledger : ledger;
  mutable fault_handler : (Memory.Page.pfn -> cpu:Numa.Topology.cpu -> unit) option;
  mutable policy_name : string;
}

let slot = function
  | Hypercall -> 0
  | Fault -> 1
  | Migrate -> 2
  | Pt_replica -> 3
  | Io -> 4
  | Release -> 5

let fresh_ledger () = { time = Array.make 6 0.0; faults = 0 }

let charge t cost x =
  let time = t.ledger.time and i = slot cost in
  time.(i) <- time.(i) +. x

let spent t cost = t.ledger.time.(slot cost)
let faults t = t.ledger.faults

let reset_ledger t =
  Array.fill t.ledger.time 0 6 0.0;
  t.ledger.faults <- 0

let virt_overhead t ~page_scale ~threads =
  ((spent t Fault *. float_of_int page_scale)
  +. spent t Hypercall +. spent t Migrate +. spent t Pt_replica)
  /. float_of_int threads

let completion t ~compute_time ~page_scale ~threads =
  compute_time +. spent t Io +. virt_overhead t ~page_scale ~threads +. spent t Release

(* The first-touch boot faults in every footprint page: update the slot
   in place, since [charge]'s float argument is boxed unless inlined. *)
let handle_fault t ~costs ~pfn ~cpu =
  let time = t.ledger.time and fault = slot Fault in
  t.ledger.faults <- t.ledger.faults + 1;
  time.(fault) <- time.(fault) +. costs.Costs.hypervisor_fault;
  match t.fault_handler with
  | None -> false
  | Some handler ->
      handler pfn ~cpu;
      if P2m.mfn_of t.p2m pfn < 0 then false
      else begin
        time.(fault) <- time.(fault) +. costs.Costs.page_map;
        true
      end
