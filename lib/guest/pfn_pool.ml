type state = Fresh | Allocated | Free

type t = {
  states : state array;
  mutable free_stack : Memory.Page.pfn list;
  mutable next_fresh : int;
}

let create ~frames ?(first_fresh = 0) () =
  if frames <= 0 then invalid_arg "Pfn_pool.create: frames must be positive";
  if first_fresh < 0 || first_fresh >= frames then
    invalid_arg "Pfn_pool.create: first_fresh out of range";
  {
    states = Array.make frames Fresh;
    free_stack = [];
    next_fresh = first_fresh;
  }

let alloc t =
  match t.free_stack with
  | pfn :: rest ->
      t.free_stack <- rest;
      t.states.(pfn) <- Allocated;
      Some pfn
  | [] ->
      if t.next_fresh >= Array.length t.states then None
      else begin
        let pfn = t.next_fresh in
        t.next_fresh <- t.next_fresh + 1;
        t.states.(pfn) <- Allocated;
        Some pfn
      end

let release t pfn =
  if pfn < 0 || pfn >= Array.length t.states then invalid_arg "Pfn_pool.release: out of range";
  match t.states.(pfn) with
  | Allocated ->
      t.states.(pfn) <- Free;
      t.free_stack <- pfn :: t.free_stack
  | Free -> invalid_arg "Pfn_pool.release: double release"
  | Fresh -> invalid_arg "Pfn_pool.release: frame was never allocated"

let free_pfns t = t.free_stack

let is_free t pfn =
  if pfn < 0 || pfn >= Array.length t.states then invalid_arg "Pfn_pool.is_free: out of range";
  t.states.(pfn) = Free
