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

exception Epoch_cap of { label : string; max_epochs : int }

let hit_cap (cfg : Engine.Config.t) (result : Engine.Result.t) =
  result.Engine.Result.epochs >= cfg.Engine.Config.max_epochs

let cap_message label max_epochs =
  Printf.sprintf "%s hit the epoch cap (%d epochs) without completing" label max_epochs

(* The one place a grid cell is simulated: a run that stopped at the
   cap has no completion time, so it fails the grid instead of ranking
   as the fastest cell. *)
let run_cell cfg =
  let result = Engine.Runner.run cfg in
  if hit_cap cfg result then
    raise
      (Epoch_cap { label = Engine.Config.label cfg; max_epochs = cfg.Engine.Config.max_epochs });
  result

let key_label key =
  Printf.sprintf "%s|%s|%s|%b" (Engine.Config.mode_name key.mode) key.app
    (Policies.Spec.name key.policy) key.mcs

let task_seed ~base key = cell_seed ~base (key_label key)

let run ?(seed = 42) key =
  let cached = Mutex.protect cache_mutex (fun () -> Hashtbl.find_opt cache (key, seed)) in
  match cached with
  | Some result -> result
  | None ->
      let vm =
        Engine.Config.vm ~use_mcs:key.mcs ~policy:key.policy (Workloads.Catalogue.get key.app)
      in
      let cfg = Engine.Config.make ~seed:(task_seed ~base:seed key) ~mode:key.mode [ vm ] in
      let result = run_cell cfg in
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

let xen_plus ?(mcs = false) app policy =
  { mode = Engine.Config.Xen_plus; app = app.Workloads.App.name; policy; mcs }

let mcs_apps = [ "facesim"; "streamcluster" ]

let uses_mcs app = List.mem app.Workloads.App.name mcs_apps

let xen_stock app =
  { mode = Engine.Config.Xen; app = app.Workloads.App.name; policy = Policies.Spec.round_1g;
    mcs = false }

let xen_plus_default app = xen_plus ~mcs:(uses_mcs app) app Policies.Spec.round_1g
