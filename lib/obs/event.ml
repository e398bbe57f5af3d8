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
  | Pv_lost
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
    Pv_lost;
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
  | Pv_lost -> 10
  | Breaker_trip -> 11
  | Breaker_escalate -> 12
  | Breaker_cooldown -> 13
  | Reconcile_sweep -> 14
  | Epoch_boundary -> 15
  | Splinter -> 16
  | Promote -> 17
  | Superpage_migrate -> 18
  | Pv_dedup -> 19
  | P2m_batch -> 20
  | Ecc_ce -> 21
  | Ecc_ue -> 22
  | Page_offline -> 23
  | Node_drain -> 24
  | Evacuate -> 25
  | Pt_walk -> 26
  | Pt_replica_update -> 27
  | Pt_replica_invalidate -> 28

let class_of_index = function
  | 0 -> Some Hypercall_entry
  | 1 -> Some Hypercall_exit
  | 2 -> Some Page_fault
  | 3 -> Some First_touch
  | 4 -> Some Migrate_start
  | 5 -> Some Migrate_retry
  | 6 -> Some Migrate_defer
  | 7 -> Some Migrate_drain
  | 8 -> Some Pv_record
  | 9 -> Some Pv_flush
  | 10 -> Some Pv_lost
  | 11 -> Some Breaker_trip
  | 12 -> Some Breaker_escalate
  | 13 -> Some Breaker_cooldown
  | 14 -> Some Reconcile_sweep
  | 15 -> Some Epoch_boundary
  | 16 -> Some Splinter
  | 17 -> Some Promote
  | 18 -> Some Superpage_migrate
  | 19 -> Some Pv_dedup
  | 20 -> Some P2m_batch
  | 21 -> Some Ecc_ce
  | 22 -> Some Ecc_ue
  | 23 -> Some Page_offline
  | 24 -> Some Node_drain
  | 25 -> Some Evacuate
  | 26 -> Some Pt_walk
  | 27 -> Some Pt_replica_update
  | 28 -> Some Pt_replica_invalidate
  | _ -> None

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
  | Pv_lost -> "pv_lost"
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
