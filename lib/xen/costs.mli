(** Cost model of the virtualization mechanisms, in seconds.

    Calibrated on the paper's measurements:
    - an empty hypercall every 15 µs (wrmem's release rate) divides
      performance by 3 (Section 4.2.3);
    - during a batched page-ops hypercall, 87.5 % of the time goes to
      invalidating entries and 12.5 % to sending the queue
      (Section 4.2.4);
    - sending an IPI costs 0.9 µs native and 10.9 µs in guest mode
      (Figure 5);
    - reading a 4 KiB block costs 74 µs native, 307 µs through the
      para-virtualized path, 186 µs through PCI passthrough
      (Sections 2.2.2 and 5.3.1). *)

type t = {
  hypercall_entry : float;
      (** Guest→hypervisor world switch (vmexit + dispatch + vmentry). *)
  page_op_send : float;
      (** Copying one queue entry to the hypervisor during the batched
          page-ops hypercall. *)
  page_invalidate : float;
      (** Invalidating one P2M entry (including TLB shootdown share). *)
  hypervisor_fault : float;
      (** Taking one hypervisor page fault (first touch of an
          unmapped guest-physical page). *)
  page_map : float;
      (** Installing one P2M entry from the fault handler. *)
  page_migrate_fixed : float;
      (** Write-protecting and remapping one page during migration. *)
  copy_byte : float;
      (** Per-byte memory copy cost during migration. *)
  ipi_native : float;
  ipi_guest : float;
  context_switch : float;
      (** One intentional guest context switch (enter/leave sleep). *)
  blocked_wakeup_native : float;
      (** Latency for a sleeping thread to resume after its wake-up
          event in native mode (scheduler wake path). *)
  blocked_wakeup_guest : float;
      (** Same under virtualization: the halted vCPU was descheduled by
          the hypervisor, so the wake-up pays the guest IPI plus vCPU
          re-scheduling — the blocked-waiter wake-up problem that makes
          frequent context switchers suffer (Section 5.3.2). *)
  disk_native_request : float;
      (** Native per-request software overhead (setup, interrupt). *)
  disk_pv_extra : float;
      (** Additional per-request cost of the dom0-mediated pv path. *)
  disk_passthrough_extra : float;
      (** Additional per-request cost with IOMMU + PCI passthrough. *)
  disk_bandwidth : float;  (** Sustained transfer rate, bytes/s. *)
}

val default : t

val splinter_time : t -> frames_4k:int -> float
(** Time to demote one superpage entry spanning [frames_4k] real 4 KiB
    frames: the write-protect→remap cost ({!field-page_migrate_fixed})
    per frame, as charged for a first-touch invalidation or
    single-page migration landing inside a superpage. *)

val promote_time : t -> frames_4k:int -> copy_bytes:int -> float
(** Time to coalesce [frames_4k] real 4 KiB frames into one superpage
    entry.  With [copy_bytes = 0] the frames are already contiguous and
    only the entries are rebuilt ({!field-page_map} each); otherwise the
    extent is migrated onto a fresh contiguous block, paying the
    per-frame migration fixed cost plus the copy. *)

val page_ops_batch_time : t -> ops:int -> float
(** Cost of delivering one batched page-ops hypercall of [ops] queue
    entries: one world switch plus {!field-page_op_send} per entry. *)

val invalidate_batch_time : t -> frames:int -> float
(** Marginal cost of invalidating [frames] P2M entries inside an
    already-entered batched hypercall. *)

val migrate_batch_time : t -> pages:int -> page_bytes:int -> scale:int -> float
(** Time to migrate [pages] scaled pages (of [page_bytes] each, every
    scaled page standing for [scale] real 4 KiB frames) between one
    (src, dst) node pair as a single grouped operation: the
    write-protect machinery is charged once per batch, each page then
    pays the per-frame remap plus its copy.  Equals the unbatched
    per-page cost at [pages = 1] and is strictly below the per-page sum
    for larger batches. *)

val pt_replica_update_time : t -> replicas:int -> float
(** Write-propagation cost of one P2M entry write under replicated
    page tables: each of the [replicas] mirrors pays a queue send
    ({!field-page_op_send}) plus an entry install
    ({!field-page_map}). *)

val pt_replica_invalidate_time : t -> replicas:int -> float
(** Shootdown cost of one P2M entry invalidation under replicated page
    tables: a queue send plus an entry invalidate
    ({!field-page_invalidate}) per mirror. *)

val disk_request_overhead : t -> [ `Native | `Pv | `Passthrough ] -> float
(** Per-request software overhead of one disk read over the given path:
    the native cost plus the path's extra. *)

val disk_request : t -> path:[ `Native | `Pv | `Passthrough ] -> bytes:int -> float
(** End-to-end time of one disk read of [bytes] over the given path:
    {!disk_request_overhead} plus the transfer. *)
