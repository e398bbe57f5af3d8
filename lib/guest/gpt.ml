type t = int array (* -1 = unmapped *)

let create ~frames =
  if frames <= 0 then invalid_arg "Gpt.create: frames must be positive";
  Array.make frames (-1)

let touch t vfn ~alloc =
  if vfn < 0 || vfn >= Array.length t then invalid_arg "Gpt: vfn out of range";
  let pfn = t.(vfn) in
  if pfn >= 0 then Some pfn
  else
    match alloc () with
    | None -> None
    | Some pfn ->
        t.(vfn) <- pfn;
        Some pfn
