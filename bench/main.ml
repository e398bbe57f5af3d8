(* Reproduction driver: regenerates every table and figure of the
   paper, plus the repo's own extension grids, as text tables on stdout.
   It does not time anything; the repo benchmark (benchmark/run.sh)
   times the simulator and tier1.sh gates on it.

   Usage: main.exe [SECTION...] [--jobs N] [--trace FILE]
                   [--trace-cap N] [--profile] [--no-fast-forward]

   SECTION is all (the default) or any of tab1 tab2 tab3 tab4 fig1
   fig2 fig5 fig6 fig7 fig8 fig9 fig10 dma batching ablation
   motivation generality chaos hugepage mitosis ras.

   --jobs N       run the experiment grids on N domains (default:
                  XEN_NUMA_JOBS or the host's recommended domain count);
                  stdout is byte-identical at every N
   --trace FILE   capture an event trace of every simulated run and
                  write the deterministic merge to FILE as JSONL
   --trace-cap N  per-stream trace ring capacity (default 4096)
   --profile      enable the runner phase profiler and print the span
                  table at the end
   --no-fast-forward
                  disable the engine's steady-state fast-forward for
                  every run of the session (bit-identical either way;
                  the escape hatch and the A/B baseline) *)

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '#')

let sections : (string * (unit -> unit)) list =
  [
    ("tab2", fun () -> section "Table 2"; Experiments.Single_vm.print_tab2 ());
    ("tab3", fun () -> section "Table 3"; Experiments.Micro.print_tab3 ());
    ("fig5", fun () -> section "Figure 5"; Experiments.Micro.print_fig5 ());
    ("dma", fun () -> section "DMA paths (Sections 2.2.2, 5.3.1, 4.4.1)"; Experiments.Micro.print_dma ());
    ( "batching",
      fun () -> section "Hypercall batching (Sections 4.2.3-4.2.4)"; Experiments.Micro.print_batching () );
    ("tab1", fun () -> section "Table 1"; Experiments.Single_vm.print_tab1 ());
    ("fig1", fun () -> section "Figure 1"; Experiments.Single_vm.print_fig1 ());
    ("fig2", fun () -> section "Figure 2"; Experiments.Single_vm.print_fig2 ());
    ("fig6", fun () -> section "Figure 6"; Experiments.Single_vm.print_fig6 ());
    ("fig7", fun () -> section "Figure 7"; Experiments.Single_vm.print_fig7 ());
    ("tab4", fun () -> section "Table 4"; Experiments.Single_vm.print_tab4 ());
    ("fig8", fun () -> section "Figure 8"; Experiments.Multi_vm.print_fig8 ());
    ("fig9", fun () -> section "Figure 9"; Experiments.Multi_vm.print_fig9 ());
    ("fig10", fun () -> section "Figure 10"; Experiments.Single_vm.print_fig10 ());
    ( "ablation",
      fun () ->
        section "Ablations";
        Experiments.Ablation.print_replay_direction ();
        Experiments.Ablation.print_mcs ();
        Experiments.Ablation.print_round1g_fragmentation ();
        Experiments.Ablation.print_replication ();
        Experiments.Ablation.print_huge_pages ();
        Experiments.Ablation.print_carrefour_heuristics () );
    ( "motivation",
      fun () -> section "Motivation (Section 1)"; Experiments.Motivation.print () );
    ( "generality",
      fun () -> section "Topology generality"; Experiments.Generality.print () );
    ( "chaos",
      fun () ->
        section "Chaos (fault injection and graceful degradation)";
        Experiments.Chaos.print () );
    ( "hugepage",
      fun () ->
        section "Hugepage (2 MiB P2M superpages on/off)";
        Experiments.Hugepage.print () );
    ( "mitosis",
      fun () ->
        section "Mitosis (radix page-walk pricing and PT replication)";
        Experiments.Mitosis.print () );
    ( "ras",
      fun () ->
        section "Memory RAS (ECC errors and node failure)";
        Experiments.Ras.print () );
  ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let usage () =
  Printf.eprintf
    "usage: main.exe [sections...] [--jobs N] [--trace FILE] [--trace-cap N]\n\
    \       [--profile] [--no-fast-forward]\n\
     available sections: all %s\n"
    (String.concat " " (List.map fst sections));
  exit 1

type opts = {
  mutable names : string list;
  mutable jobs : int option;
  mutable trace : string option;
  mutable trace_cap : int;
  mutable profile : bool;
  mutable no_fast_forward : bool;
}

let () =
  let o =
    { names = []; jobs = None; trace = None; trace_cap = 4096; profile = false;
      no_fast_forward = false }
  in
  let rec parse = function
    | [] -> ()
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 ->
            o.jobs <- Some j;
            parse rest
        | Some _ | None ->
            Printf.eprintf "--jobs expects a positive integer, got %S\n" n;
            usage ())
    | "--trace" :: file :: rest ->
        o.trace <- Some file;
        parse rest
    | "--profile" :: rest ->
        o.profile <- true;
        parse rest
    | "--no-fast-forward" :: rest ->
        o.no_fast_forward <- true;
        parse rest
    | "--trace-cap" :: n :: rest -> (
        match int_of_string_opt n with
        | Some c when c >= 1 ->
            o.trace_cap <- c;
            parse rest
        | Some _ | None ->
            Printf.eprintf "--trace-cap expects a positive integer, got %S\n" n;
            usage ())
    | ("--jobs" | "--trace" | "--trace-cap" | "--help" | "-h") :: _ -> usage ()
    | name :: rest ->
        o.names <- name :: o.names;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* Process-wide default, like set_default_jobs: every run the
     experiment grids spawn sees it without threading a flag through
     them.  The fast-forward is bit-identical either way, so this only
     trades speed for an A/B check. *)
  if o.no_fast_forward then Engine.Config.set_default_fast_forward false;
  (match o.jobs with Some n -> Engine.Pool.set_default_jobs n | None -> ());
  let requested =
    match List.rev o.names with [] | [ "all" ] -> List.map fst sections | names -> names
  in
  List.iter
    (fun name ->
      if not (List.mem_assoc name sections) then begin
        Printf.eprintf "unknown section %S\n" name;
        usage ()
      end)
    requested;
  if o.profile then begin
    Obs.Profile.reset ();
    Obs.Profile.set_enabled true
  end;
  let session =
    Option.map
      (fun file ->
        match Obs.Trace.start ~capacity:o.trace_cap file with
        | s -> s
        | exception Sys_error msg ->
            Printf.eprintf "bench: cannot write trace: %s\n" msg;
            exit 1)
      o.trace
  in
  (* A grid cell that hit the epoch cap has no completion time: fail
     after the output printed so far. *)
  (try List.iter (fun name -> (List.assoc name sections) ()) requested
   with Experiments.Runs.Epoch_cap { label; max_epochs } ->
     flush stdout;
     prerr_endline ("bench: " ^ Experiments.Runs.cap_message label max_epochs);
     exit 1);
  if o.profile then begin
    print_newline ();
    print_string (Obs.Profile.render ())
  end;
  match (session, o.trace) with
  | Some s, Some file ->
      Obs.Trace.write_file s file;
      Obs.Trace.uninstall ();
      Printf.printf "wrote %s (%d streams)\n" file (Obs.Trace.stream_count s)
  | _ -> ()
