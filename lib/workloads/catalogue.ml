type best = FT | FTC | R4K | R4KC | R1G

let spec_of_best = function
  | FT -> Policies.Spec.first_touch
  | FTC -> Policies.Spec.first_touch_carrefour
  | R4K -> Policies.Spec.round_4k
  | R4KC -> Policies.Spec.round_4k_carrefour
  | R1G -> Policies.Spec.round_1g

(* One row per application:
   (name, suite, disk MB/s, ctx k/s, footprint MB,
    imb_ft %, imb_r4k %, ic_ft %, ic_r4k %, class,
    best Linux, best Xen+, native seconds)
   The first ten columns are the paper's Tables 1 and 2; the two "best"
   columns are Table 4. *)
let rows =
  App.
    [
      ("bodytrack", Parsec, 0.0, 17.7, 7, 135, 48, 9, 8, High, R4KC, R4KC, 40.0);
      ("facesim", Parsec, 0.0, 11.7, 328, 253, 27, 39, 16, High, R4K, R4K, 90.0);
      ("fluidanimate", Parsec, 0.0, 4.2, 223, 65, 16, 18, 16, Low, R4KC, R4KC, 60.0);
      ("streamcluster", Parsec, 0.0, 29.5, 106, 219, 45, 31, 18, High, R4K, R4K, 75.0);
      ("swaptions", Parsec, 0.0, 0.0, 4, 175, 180, 4, 5, High, R4K, R4K, 35.0);
      ("x264", Parsec, 0.0, 0.6, 1129, 84, 28, 17, 13, Low, FT, R4K, 50.0);
      ("bt.C", Npb, 0.0, 1.2, 698, 89, 8, 51, 35, Moderate, FTC, FTC, 95.0);
      ("cg.C", Npb, 0.0, 5.9, 889, 7, 5, 11, 46, Low, FT, FT, 60.0);
      ("dc.B", Npb, 175.0, 0.1, 39273, 45, 19, 10, 22, Low, FT, R1G, 240.0);
      ("ep.D", Npb, 0.0, 0.0, 49, 263, 116, 48, 9, High, R4K, R4K, 80.0);
      ("ft.C", Npb, 0.0, 0.3, 5156, 60, 19, 17, 46, Low, R4K, R4K, 70.0);
      ("lu.C", Npb, 0.0, 1.5, 600, 47, 30, 18, 41, Low, R4K, FT, 85.0);
      ("mg.D", Npb, 0.0, 1.5, 27095, 8, 1, 12, 51, Low, FT, FT, 160.0);
      ("sp.C", Npb, 0.0, 2.0, 869, 113, 4, 43, 58, Moderate, R4KC, R4KC, 100.0);
      ("ua.C", Npb, 0.0, 37.4, 483, 5, 7, 14, 37, Low, FT, FT, 90.0);
      ("wc", Mosbench, 0.0, 3.9, 16682, 101, 41, 18, 17, Moderate, FTC, R4K, 70.0);
      ("wr", Mosbench, 1.0, 5.2, 19016, 110, 57, 18, 18, Moderate, FT, R4K, 80.0);
      ("wrmem", Mosbench, 5.0, 7.5, 11610, 135, 102, 10, 11, High, FT, R4K, 60.0);
      ("pca", Mosbench, 0.0, 0.3, 5779, 235, 14, 52, 41, High, R4K, R4KC, 110.0);
      ("kmeans", Mosbench, 0.0, 0.1, 4178, 251, 26, 61, 42, High, R4K, R4K, 90.0);
      ("psearchy", Mosbench, 54.0, 0.8, 28576, 19, 8, 6, 46, Low, FT, R4K, 130.0);
      ("memcached", Mosbench, 0.0, 127.1, 2205, 85, 74, 13, 12, Low, FT, R1G, 120.0);
      ("belief", Xstream, 234.0, 0.0, 12292, 206, 80, 19, 10, High, R4K, R4KC, 210.0);
      ("bfs", Xstream, 236.0, 0.0, 12291, 190, 24, 17, 12, High, R4K, R4K, 190.0);
      ("cc", Xstream, 249.0, 0.0, 12291, 185, 31, 17, 11, High, R4KC, R4KC, 200.0);
      ("pagerank", Xstream, 240.0, 0.0, 12291, 183, 23, 17, 11, High, R4KC, R4KC, 220.0);
      ("sssp", Xstream, 261.0, 0.0, 12291, 193, 10, 17, 11, High, R4KC, R4KC, 210.0);
      ("cassandra", Ycsb, 16.0, 10.7, 1111, 65, 50, 14, 14, Low, FTC, R1G, 150.0);
      ("mongodb", Ycsb, 184.0, 14.6, 1092, 130, 95, 16, 14, Moderate, FTC, R1G, 150.0);
    ]

let clamp lo hi x = Float.max lo (Float.min hi x)

(* Streamflow page-release churn for the Mosbench applications
   (wrmem's 15 us period is the paper's measurement). *)
let release_period name =
  match name with
  | "wrmem" -> Some 15e-6
  | "wr" -> Some 30e-6
  | "wc" -> Some 50e-6
  | "psearchy" | "memcached" -> Some 100e-6
  | "pca" | "kmeans" -> Some 200e-6
  | _ -> None

(* Read-mostly workloads: the X-Stream graph kernels stream a
   read-only edge list; memcached serves GETs. *)
let read_fraction name suite =
  match (name, suite) with
  | "memcached", _ -> 0.95
  | _, App.Xstream -> 0.90
  | _, (App.Parsec | App.Npb | App.Mosbench | App.Ycsb) -> 0.70

(* Iterative structure: graph kernels and iterative solvers revisit
   their data each superstep with a shifting hot front; single-pass
   text processing and steady-state servers do not. *)
let phases name suite =
  match (name, suite) with
  | _, App.Xstream -> 12
  | ("kmeans" | "pca"), _ -> 8
  | ("cg.C" | "mg.D" | "lu.C" | "sp.C" | "bt.C" | "ua.C"), _ -> 10
  | "ft.C", _ -> 6
  | "streamcluster", _ -> 8
  | ("bodytrack" | "x264"), _ -> 4
  | "psearchy", _ -> 4
  | _, (App.Parsec | App.Npb | App.Mosbench | App.Ycsb) -> 1

let io_block name suite =
  match (name, suite) with
  | _, App.Xstream -> 128 * 1024
  | ("dc.B" | "psearchy"), _ -> 128 * 1024
  | _, App.Ycsb -> 16 * 1024
  | _, (App.Parsec | App.Npb | App.Mosbench) -> 64 * 1024

let make (name, suite, disk, ctx, fp, imb_ft, imb_r4k, ic_ft, ic_r4k, class_, bl, bx, secs) =
  let pct x = float_of_int x /. 100.0 in
  let best_linux = spec_of_best bl and best_xen = spec_of_best bx in
  let master_bias = clamp 0.0 0.97 (pct imb_ft /. 2.65) in
  let miss_rate = clamp 0.0015 0.035 (0.05 *. pct ic_r4k) in
  let zipf_s = match class_ with App.Low -> 0.4 | App.Moderate | App.High -> 0.9 in
  let remote_burst =
    if class_ = App.Low && not best_linux.Policies.Spec.carrefour then 0.15 else 0.0
  in
  {
    App.name;
    suite;
    footprint_mb = fp;
    disk_mb_s = disk;
    ctx_switch_k_s = ctx;
    master_bias;
    shared_bytes_fraction = clamp 0.2 0.95 (master_bias +. 0.1);
    miss_rate;
    zipf_s;
    read_fraction = read_fraction name suite;
    remote_burst;
    phases = phases name suite;
    native_seconds = secs;
    page_release_period = release_period name;
    io_block_bytes = io_block name suite;
    net_service = List.mem name [ "memcached"; "cassandra"; "mongodb" ];
    paper =
      {
        App.imbalance_ft = pct imb_ft;
        imbalance_r4k = pct imb_r4k;
        interconnect_ft = pct ic_ft;
        interconnect_r4k = pct ic_r4k;
        class_;
        best_linux;
        best_xen;
      };
  }

let all = List.map make rows

let find name =
  let name = String.lowercase_ascii name in
  List.find_opt (fun app -> String.lowercase_ascii app.App.name = name) all

let names = List.map (fun app -> app.App.name) all

