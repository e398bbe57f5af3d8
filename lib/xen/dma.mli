(** DMA transfers and the IOMMU.

    Three I/O paths exist for a domU (Section 2.2):
    - [Pv]: the para-virtualized path through dom0 — physical addresses
      are translated by software, so an invalid P2M entry simply faults
      {e synchronously} into the hypervisor, which maps the page and
      the transfer proceeds (at pv cost: 307 µs per 4 KiB read);
    - [Passthrough]: the device uses the IOMMU to translate guest
      physical addresses itself (186 µs per 4 KiB read).  The IOMMU
      cannot handle an invalid P2M entry: it aborts the transfer and
      notifies the hypervisor {e asynchronously} — by the time the
      hypervisor could map the page, the guest OS has already returned
      an I/O error to the process (Section 4.4.1).  This is the
      first-touch × IOMMU incompatibility.
    - [Native]: no hypervisor at all (74 µs), for the Linux baseline.
*)

type path = Native | Pv | Passthrough

type error =
  | Iommu_fault of { pfn : Memory.Page.pfn }
      (** The transfer hit an invalid P2M entry through the IOMMU; the
          guest received EIO before the hypervisor could repair it. *)
  | No_passthrough_bus
      (** The domain owns no PCI bus carrying the device. *)

val pp_error : Format.formatter -> error -> unit

val read :
  System.t ->
  Domain.t ->
  pci:Pci.t ->
  path:path ->
  buffer:Memory.Page.pfn list ->
  bytes:int ->
  (float, error) result
(** Perform one DMA read of [bytes] into the guest-physical pages
    [buffer].  On success returns the elapsed time; invalid P2M
    entries are handled per the path semantics above.  [buffer] may
    be empty for [Native]. *)
