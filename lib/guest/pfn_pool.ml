(* Per-frame state, one byte each, for the pfns handed out so far:
   states.[pfn - first_fresh] for pfn in [first_fresh, next_fresh).
   Every other pfn is fresh (never allocated), so the table grows with
   what the guest has allocated, not with its memory size. *)
let allocated = '\001'
let free = '\002'

type t = {
  frames : int;
  first_fresh : int;
  mutable states : Bytes.t;  (* covers at least [first_fresh, next_fresh) *)
  mutable free_stack : Memory.Page.pfn list;
  mutable next_fresh : int;
}

let create ~frames ?(first_fresh = 0) () =
  if frames <= 0 then invalid_arg "Pfn_pool.create: frames must be positive";
  if first_fresh < 0 || first_fresh >= frames then
    invalid_arg "Pfn_pool.create: first_fresh out of range";
  { frames; first_fresh; states = Bytes.empty; free_stack = []; next_fresh = first_fresh }

(* The state byte of a pfn in [0, frames); '\000' = fresh. *)
let state t pfn =
  if pfn < t.first_fresh || pfn >= t.next_fresh then '\000'
  else Bytes.get t.states (pfn - t.first_fresh)

let alloc t =
  match t.free_stack with
  | pfn :: rest ->
      t.free_stack <- rest;
      Bytes.set t.states (pfn - t.first_fresh) allocated;
      pfn
  | [] ->
      if t.next_fresh >= t.frames then -1
      else begin
        let pfn = t.next_fresh in
        let i = pfn - t.first_fresh in
        if i >= Bytes.length t.states then begin
          let cap = Int.min (t.frames - t.first_fresh) (Int.max 64 (2 * i)) in
          let states = Bytes.make cap '\000' in
          Bytes.blit t.states 0 states 0 i;
          t.states <- states
        end;
        t.next_fresh <- pfn + 1;
        Bytes.set t.states i allocated;
        pfn
      end

let release t pfn =
  if pfn < 0 || pfn >= t.frames then invalid_arg "Pfn_pool.release: out of range";
  let s = state t pfn in
  if s = allocated then begin
    Bytes.set t.states (pfn - t.first_fresh) free;
    t.free_stack <- pfn :: t.free_stack
  end
  else if s = free then invalid_arg "Pfn_pool.release: double release"
  else invalid_arg "Pfn_pool.release: frame was never allocated"

let free_pfns t = t.free_stack

let is_free t pfn =
  if pfn < 0 || pfn >= t.frames then invalid_arg "Pfn_pool.is_free: out of range";
  state t pfn = free
