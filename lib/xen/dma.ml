type path = Native | Pv | Passthrough

type error =
  | Iommu_fault of { pfn : Memory.Page.pfn }
  | No_passthrough_bus

let pp_error fmt = function
  | Iommu_fault { pfn } ->
      Format.fprintf fmt "asynchronous IOMMU fault on pfn %d: guest already saw EIO" pfn
  | No_passthrough_bus -> Format.fprintf fmt "domain owns no passthrough bus for the device"

(* Resolve a buffer page for the pv path: an invalid entry faults
   synchronously into the hypervisor, which can map it in time. *)
let pv_resolve system domain pfn =
  match P2m.get domain.Domain.p2m pfn with
  | P2m.Mapped _ -> 0.0
  | P2m.Invalid ->
      let (_ : bool) =
        Domain.handle_fault domain ~costs:system.System.costs ~pfn ~cpu:domain.Domain.vcpu_pin.(0)
      in
      system.System.costs.Costs.hypervisor_fault

let path_name = function Native -> "native" | Pv -> "pv" | Passthrough -> "passthrough"

let read_impl system domain ~pci ~path ~buffer ~bytes =
  let costs = system.System.costs in
  match path with
  | Native -> Ok (Costs.disk_request costs ~path:`Native ~bytes)
  | Pv ->
      let fault_time = List.fold_left (fun acc pfn -> acc +. pv_resolve system domain pfn) 0.0 buffer in
      Ok (Costs.disk_request costs ~path:`Pv ~bytes +. fault_time)
  | Passthrough ->
      if not (Pci.domain_has_passthrough pci domain Pci.Disk) then Error No_passthrough_bus
      else begin
        (* The IOMMU walks the P2M itself; the first invalid entry
           aborts the transfer with an asynchronous error. *)
        let bad = List.find_opt (fun pfn -> P2m.get domain.Domain.p2m pfn = P2m.Invalid) buffer in
        match bad with
        | Some pfn -> Error (Iommu_fault { pfn })
        | None -> Ok (Costs.disk_request costs ~path:`Passthrough ~bytes)
      end

let read system domain ~pci ~path ~buffer ~bytes =
  let result = read_impl system domain ~pci ~path ~buffer ~bytes in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr (Printf.sprintf "xen.dma.%s.requests" (path_name path));
    (match result with
    | Ok time -> Obs.Metrics.observe (Printf.sprintf "xen.dma.%s.time_s" (path_name path)) time
    | Error (Iommu_fault _) -> Obs.Metrics.incr "xen.dma.iommu_faults"
    | Error No_passthrough_bus -> Obs.Metrics.incr "xen.dma.no_passthrough_bus")
  end;
  result
