type class_ =
  | Hypercall_entry
  | Hypercall_exit
  | Page_fault
  | First_touch
  | Migrate_start
  | Migrate_retry
  | Migrate_defer
  | Migrate_drain
  | Pv_record
  | Pv_flush
  | Breaker_trip
  | Breaker_escalate
  | Breaker_cooldown
  | Reconcile_sweep
  | Epoch_boundary
  | Splinter
  | Promote
  | Superpage_migrate
  | Pv_dedup
  | P2m_batch
  | Ecc_ce
  | Ecc_ue
  | Page_offline
  | Node_drain
  | Evacuate
  | Pt_walk
  | Pt_replica_update
  | Pt_replica_invalidate

let classes =
  [
    Hypercall_entry;
    Hypercall_exit;
    Page_fault;
    First_touch;
    Migrate_start;
    Migrate_retry;
    Migrate_defer;
    Migrate_drain;
    Pv_record;
    Pv_flush;
    Breaker_trip;
    Breaker_escalate;
    Breaker_cooldown;
    Reconcile_sweep;
    Epoch_boundary;
    Splinter;
    Promote;
    Superpage_migrate;
    Pv_dedup;
    P2m_batch;
    Ecc_ce;
    Ecc_ue;
    Page_offline;
    Node_drain;
    Evacuate;
    Pt_walk;
    Pt_replica_update;
    Pt_replica_invalidate;
  ]

let class_count = List.length classes

let class_index = function
  | Hypercall_entry -> 0
  | Hypercall_exit -> 1
  | Page_fault -> 2
  | First_touch -> 3
  | Migrate_start -> 4
  | Migrate_retry -> 5
  | Migrate_defer -> 6
  | Migrate_drain -> 7
  | Pv_record -> 8
  | Pv_flush -> 9
  | Breaker_trip -> 10
  | Breaker_escalate -> 11
  | Breaker_cooldown -> 12
  | Reconcile_sweep -> 13
  | Epoch_boundary -> 14
  | Splinter -> 15
  | Promote -> 16
  | Superpage_migrate -> 17
  | Pv_dedup -> 18
  | P2m_batch -> 19
  | Ecc_ce -> 20
  | Ecc_ue -> 21
  | Page_offline -> 22
  | Node_drain -> 23
  | Evacuate -> 24
  | Pt_walk -> 25
  | Pt_replica_update -> 26
  | Pt_replica_invalidate -> 27

let class_name = function
  | Hypercall_entry -> "hypercall_entry"
  | Hypercall_exit -> "hypercall_exit"
  | Page_fault -> "page_fault"
  | First_touch -> "first_touch"
  | Migrate_start -> "migrate_start"
  | Migrate_retry -> "migrate_retry"
  | Migrate_defer -> "migrate_defer"
  | Migrate_drain -> "migrate_drain"
  | Pv_record -> "pv_record"
  | Pv_flush -> "pv_flush"
  | Breaker_trip -> "breaker_trip"
  | Breaker_escalate -> "breaker_escalate"
  | Breaker_cooldown -> "breaker_cooldown"
  | Reconcile_sweep -> "reconcile_sweep"
  | Epoch_boundary -> "epoch_boundary"
  | Splinter -> "splinter"
  | Promote -> "promote"
  | Superpage_migrate -> "superpage_migrate"
  | Pv_dedup -> "pv_dedup"
  | P2m_batch -> "p2m_batch"
  | Ecc_ce -> "ecc_ce"
  | Ecc_ue -> "ecc_ue"
  | Page_offline -> "page_offline"
  | Node_drain -> "node_drain"
  | Evacuate -> "evacuate"
  | Pt_walk -> "pt_walk"
  | Pt_replica_update -> "pt_replica_update"
  | Pt_replica_invalidate -> "pt_replica_invalidate"

let class_of_name name = List.find_opt (fun c -> class_name c = name) classes

type t = {
  time : float;  (** simulated virtual time (seconds) at emission *)
  cls : class_;
  domain : int;  (** domain id, -1 when not applicable *)
  vcpu : int;  (** vCPU index, -1 when not applicable *)
  pfn : int;  (** guest frame number, -1 when not applicable *)
  node : int;  (** NUMA node, -1 when not applicable *)
  arg : int;  (** class-specific payload (ops, level, healed pages, ...) *)
}

let make ?(domain = -1) ?(vcpu = -1) ?(pfn = -1) ?(node = -1) ?(arg = 0) ~time cls =
  { time; cls; domain; vcpu; pfn; node; arg }

(* A merged event remembers which logical stream produced it and its
   sequence number in that stream; (time, stream, seq) is the
   deterministic total order of the merged trace. *)
type merged = {
  stream : int;
  seq : int;
  event : t;
}

let compare_merged a b =
  let c = compare a.event.time b.event.time in
  if c <> 0 then c
  else begin
    let c = compare a.stream b.stream in
    if c <> 0 then c else compare a.seq b.seq
  end
