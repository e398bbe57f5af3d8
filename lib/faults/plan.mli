(** Fault-injection plans: which fault sites fire, at which rate,
    during which epoch window.

    A plan is pure data — deciding {e whether} a given fault actually
    fires is the {!Injector}'s job, through its own deterministic
    random stream.  Plans compose: a plan is a list of specs and every
    active spec gets an independent chance to fire, so
    ["alloc=0.1,alloc=0.1"] fires more often than ["alloc=0.1"]. *)

type window = {
  from_epoch : int;  (** First epoch (inclusive) the spec is armed. *)
  until_epoch : int option;  (** First epoch it is disarmed; [None] = forever. *)
}

type site =
  | Alloc_flaky of float
      (** Every machine frame allocation fails with this probability
          (transient memory pressure; fallback paths still run). *)
  | Node_offline of Numa.Topology.node
      (** Persistent exhaustion: that node's pool refuses every
          allocation while the window is armed. *)
  | Migrate_enomem of float
      (** The target-node allocation inside [migrate_page] fails with
          this probability ([migrate=1.0] = 100 % migration failure). *)
  | Batch_loss of float
      (** A flushed page-ops batch is lost in transit: the hypercall is
          charged but the queue is never replayed. *)
  | Op_drop of float
      (** Queue overflow: an op is dropped at [Pv_queue.record] time. *)
  | Hypercall_flaky of float
      (** Transient hypercall failure; the guest retries immediately
          and pays the entry cost twice. *)
  | Vcpu_stall of float
      (** A running vCPU makes no progress for one epoch (interrupt
          storm, co-scheduling hiccup). *)
  | Ecc_ce of float
      (** Correctable ECC error on a random mapped pfn each epoch with
          this probability: the frame is scrubbed in place (latency
          penalty), nothing moves. *)
  | Ecc_ue of float
      (** Uncorrectable ECC error on a random mapped pfn: the backing
          mfn must be offlined and the guest frame remapped onto a
          fresh frame. *)
  | Node_fail of float
      (** A whole node starts failing: its memory bandwidth collapses
          by [rate] over the armed window (the drain window, default 50
          epochs when [UNTIL] is omitted), the node leaves the dynamic
          {!Numa.Topology} node mask at [FROM], and at [rate >= 1.0] it
          is permanently offlined once the window closes.  The target
          node is drawn deterministically by the injector. *)

type spec = { site : site; window : window }

type t = spec list

val empty : t

val is_empty : t -> bool

val spec : ?from_epoch:int -> ?until_epoch:int -> site -> spec
(** Build a spec; the window defaults to the whole run
    ([{ from_epoch = 0; until_epoch = None }]; boot-time population
    happens at epoch [-1] and is never armed). *)

val validate : t -> (t, string) result
(** Check every rate is within [0, 1] and every window well-formed. *)

val valid_site_names : string list
(** Every site name {!of_string} accepts, in declaration order — the
    list quoted by the unknown-site parse error. *)

val of_string : string -> (t, string) result
(** Parse a comma-separated plan.  Each element is
    [site=value\[\@FROM\[-UNTIL\]\]] where [site] is one of [alloc],
    [node-off], [migrate], [batch-loss], [op-drop], [hypercall],
    [stall], [ecc-ce], [ecc-ue], [node_fail] ([node-fail] is
    accepted as an alias); [value] is a rate in [0, 1] (a node id for
    [node-off]); [FROM]/[UNTIL] bound the armed epochs ([UNTIL]
    exclusive, open-ended when omitted).  An unknown site name is an
    error that lists every valid site.  Examples:
    ["migrate=1.0"], ["alloc=0.3\@50-150,stall=0.01"],
    ["node-off=2\@100-"], ["node_fail=1.0\@50-150"]. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on a malformed plan. *)

val to_string : t -> string
(** Round-trips through {!of_string}. *)

val pp : Format.formatter -> t -> unit
