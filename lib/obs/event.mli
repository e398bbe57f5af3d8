(** Typed trace events, in the style of xentrace records.

    Every event carries the simulated virtual time it was emitted at
    and a (domain, vcpu, pfn, node) context; fields that do not apply
    to a class are [-1].  [arg] is a small class-specific payload:
    hypercall number (entry), duration in nanoseconds (exit), batch
    size (pv flush), breaker trip count/level, healed pages
    (reconcile sweep), epoch index (boundary), frames demoted or
    coalesced (splinter / promote / superpage migrate), superseded ops
    removed by the shard dedup (pv dedup), frames in one batched P2M
    operation (p2m batch), frames moved off a failing node in one
    evacuation step (evacuate), still resident when its drain finished
    (node drain), or the per-epoch cumulative counter of the
    replicated-page-table summaries (pt walk / pt replica update / pt
    replica invalidate). *)

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

val classes : class_ list
val class_count : int

val class_index : class_ -> int
(** Stable dense index in [0, class_count); the per-stream per-class
    counters key on it. *)

val class_name : class_ -> string
val class_of_name : string -> class_ option

type t = {
  time : float;
  cls : class_;
  domain : int;
  vcpu : int;
  pfn : int;
  node : int;
  arg : int;
}

val make :
  ?domain:int -> ?vcpu:int -> ?pfn:int -> ?node:int -> ?arg:int -> time:float -> class_ -> t

(** An event tagged with its logical stream id and in-stream sequence
    number, as produced by the deterministic merge. *)
type merged = {
  stream : int;
  seq : int;
  event : t;
}

val compare_merged : merged -> merged -> int
(** Total order by (time, stream, seq) — the merge key. *)
