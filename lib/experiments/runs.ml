type key = {
  mode : Engine.Config.mode;
  app : string;
  policy : Policies.Spec.t;
  mcs : bool;
}

let cache : (key * int, Engine.Result.t) Hashtbl.t = Hashtbl.create 256
let cache_mutex = Mutex.create ()

(* FNV-1a over the cell's stable textual identity, folded into the
   base seed.  Every grid cell owns an RNG stream that is a pure
   function of (label, base seed): cells never share RNG state, so a
   parallel sweep is bit-identical to the sequential one whatever the
   schedule. *)
let cell_seed ~base label =
  let h = ref 0x811C9DC5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF) label;
  (base * 0x9E3779B1 lxor !h) land 0x3FFFFFFF

let task_seed ~base key =
  cell_seed ~base
    (Printf.sprintf "%s|%s|%s|%b" (Engine.Config.mode_name key.mode) key.app
       (Policies.Spec.name key.policy) key.mcs)

let run ?(seed = 42) key =
  let cached = Mutex.protect cache_mutex (fun () -> Hashtbl.find_opt cache (key, seed)) in
  match cached with
  | Some result -> result
  | None ->
      let app =
        match Workloads.Catalogue.find key.app with
        | Some app -> app
        | None -> invalid_arg (Printf.sprintf "Runs.run: unknown app %S" key.app)
      in
      let vm = Engine.Config.vm ~use_mcs:key.mcs ~policy:key.policy app in
      let cfg = Engine.Config.make ~seed:(task_seed ~base:seed key) ~mode:key.mode [ vm ] in
      let result = Engine.Runner.run cfg in
      (* Two workers may simulate the same cell concurrently; both
         produce identical results, so first-write-wins keeps the
         [==]-sharing property callers rely on. *)
      Mutex.protect cache_mutex (fun () ->
          match Hashtbl.find_opt cache (key, seed) with
          | Some first -> first
          | None ->
              Hashtbl.replace cache (key, seed) result;
              result)

let completion ?seed key = (Engine.Result.single (run ?seed key)).Engine.Result.completion

let linux ?(mcs = false) app policy =
  { mode = Engine.Config.Linux; app = app.Workloads.App.name; policy; mcs }

let xen app policy = { mode = Engine.Config.Xen; app = app.Workloads.App.name; policy; mcs = false }

let xen_plus ?(mcs = false) app policy =
  { mode = Engine.Config.Xen_plus; app = app.Workloads.App.name; policy; mcs }

let mcs_apps = [ "facesim"; "streamcluster" ]

let uses_mcs app = List.mem app.Workloads.App.name mcs_apps

let linux_numa app =
  linux ~mcs:(uses_mcs app) app app.Workloads.App.paper.Workloads.App.best_linux

let xen_plus_numa app =
  xen_plus ~mcs:(uses_mcs app) app app.Workloads.App.paper.Workloads.App.best_xen

let xen_stock app = xen app Policies.Spec.round_1g

let xen_plus_default app = xen_plus ~mcs:(uses_mcs app) app Policies.Spec.round_1g

let clear_cache () = Mutex.protect cache_mutex (fun () -> Hashtbl.reset cache)

let capped ~max_epochs cells =
  List.filter_map
    (fun (label, (result : Engine.Result.t)) ->
      if result.Engine.Result.epochs >= max_epochs then begin
        Printf.printf "WARNING: %s hit the epoch cap without completing\n" label;
        Some label
      end
      else None)
    cells
