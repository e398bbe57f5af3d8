type kind = Dom0 | DomU

type account = {
  mutable hypercall_time : float;
  mutable fault_time : float;
  mutable fault_count : int;
  mutable migrate_time : float;
  mutable migrated_pages : int;
  mutable pt_replica_time : float;
}

type t = {
  id : int;
  name : string;
  kind : kind;
  vcpus : int;
  mem_frames : int;
  p2m : P2m.t;
  home_nodes : Numa.Topology.node array;
  vcpu_pin : int array;
  account : account;
  mutable fault_handler : (Memory.Page.pfn -> cpu:Numa.Topology.cpu -> unit) option;
  mutable policy_name : string;
}

let fresh_account () =
  {
    hypercall_time = 0.0;
    fault_time = 0.0;
    fault_count = 0;
    migrate_time = 0.0;
    migrated_pages = 0;
    pt_replica_time = 0.0;
  }

let handle_fault t ~costs ~pfn ~cpu =
  t.account.fault_count <- t.account.fault_count + 1;
  t.account.fault_time <- t.account.fault_time +. costs.Costs.hypervisor_fault;
  match t.fault_handler with
  | None -> false
  | Some handler ->
      handler pfn ~cpu;
      (match P2m.get t.p2m pfn with
      | P2m.Mapped _ ->
          t.account.fault_time <- t.account.fault_time +. costs.Costs.page_map;
          true
      | P2m.Invalid -> false)

let reset_account t =
  let a = t.account in
  a.hypercall_time <- 0.0;
  a.fault_time <- 0.0;
  a.fault_count <- 0;
  a.migrate_time <- 0.0;
  a.migrated_pages <- 0;
  a.pt_replica_time <- 0.0
