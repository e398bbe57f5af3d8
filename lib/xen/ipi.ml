type mode = Native | Guest

type stage = { label : string; native : float; guest : float }

let us x = x *. 1e-6

(* The guest column models the traps added by virtualization: the APIC
   write vmexits, the hypervisor routes to the target vCPU, kicking the
   target pCPU and injecting the interrupt needs a vmentry, and the
   handler's EOI traps again.  Totals match Figure 5: 0.9 us native,
   10.9 us guest. *)
let stages =
  [
    { label = "send (APIC write)"; native = us 0.10; guest = us 2.40 };
    { label = "route to target"; native = us 0.05; guest = us 1.30 };
    { label = "deliver + inject"; native = us 0.35; guest = us 4.20 };
    { label = "handler + EOI"; native = us 0.40; guest = us 3.00 };
  ]

let total mode =
  List.fold_left
    (fun acc s -> acc +. (match mode with Native -> s.native | Guest -> s.guest))
    0.0 stages

let send domain ~costs =
  let a = domain.Domain.account in
  a.Domain.ipi_count <- a.Domain.ipi_count + 1;
  a.Domain.ipi_time <- a.Domain.ipi_time +. costs.Costs.ipi_guest
