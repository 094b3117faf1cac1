(* The million-process simulation core: the struct-of-arrays sweep against
   its multiset reference, the SoA cluster model's determinism, the direct
   row fill against the canonical event stream, the fused round against
   its layers, and the sharded driver's worker-count identities. *)

module Sweep = Csync_core.Sweep
module Graph = Csync_topo.Graph
module Soa = Csync_process.Soa
module Scale = Csync_harness.Scale
module Multiset = Csync_multiset
module Registry = Csync_harness.Registry
module Mon = Csync_obs.Monitor

let t name f = Alcotest.test_case name `Quick f

let check_true msg b = Alcotest.(check bool) msg true b

let check_int msg a b = Alcotest.(check int) msg a b

let check_float msg a b = Alcotest.(check (float 1e-12)) msg a b

let qcheck = QCheck_alcotest.to_alcotest

let sweep_tests =
  [
    qcheck
      (QCheck.Test.make ~count:500
         ~name:"sweep midpoint matches the multiset reference"
         QCheck.(
           pair (int_bound 3)
             (list_of_size Gen.(1 -- 12) (float_bound_exclusive 100.)))
         (fun (f, row) ->
           let count = List.length row in
           let a = Array.of_list row in
           let out = [| 0. |] in
           Sweep.reduce_row (Array.copy a) ~off:0 ~count ~f ~out ~at:0;
           let got = out.(0) in
           let g = Sweep.g_of ~f ~count in
           let want = Multiset.mid_reduced ~f:g (Multiset.of_array a) in
           got = want));
    t "sweep handles offsets, empty rows and slack width" (fun () ->
        (* width 4, three rows: full, partial, empty. *)
        let slab = [| 3.; 1.; 2.; 9.; 5.; 4.; 0.; 0.; 0.; 0.; 0.; 0. |] in
        let counts = [| 4; 2; 0 |] in
        let out = Array.make 3 0. in
        Sweep.sweep ~slab ~width:4 ~counts ~f:1 ~out;
        (* Row 0 sorted: 1 2 3 9, g = min 1 1 = 1 -> (2 + 3) / 2. *)
        check_float "full row" 2.5 out.(0);
        (* Row 1: count 2, g = min 1 0 = 0 -> (4 + 5) / 2. *)
        check_float "partial row" 4.5 out.(1);
        check_true "empty row is nan" (Float.is_nan out.(2));
        (* The sort happened in place and stayed inside the row. *)
        check_float "row 0 sorted" 1. slab.(0);
        check_float "row 1 untouched tail" 0. slab.(6));
    t "sweep rejects bad shapes" (fun () ->
        let reject msg f =
          match f () with
          | () -> Alcotest.failf "%s: expected Invalid_argument" msg
          | exception Invalid_argument _ -> ()
        in
        reject "negative f" (fun () ->
            Sweep.sweep ~slab:[| 1. |] ~width:1 ~counts:[| 1 |] ~f:(-1)
              ~out:[| 0. |]);
        reject "count over width" (fun () ->
            Sweep.sweep ~slab:[| 1.; 2. |] ~width:1 ~counts:[| 2 |] ~f:0
              ~out:[| 0. |]);
        reject "short out" (fun () ->
            Sweep.sweep ~slab:[| 1.; 2. |] ~width:1 ~counts:[| 1; 1 |] ~f:0
              ~out:[| 0. |]);
        reject "row past the slab" (fun () ->
            Sweep.reduce_row [| 1. |] ~off:0 ~count:2 ~f:0 ~out:[| 0. |] ~at:0);
        reject "slab shorter than its rows" (fun () ->
            Sweep.sweep ~slab:[| 1. |] ~width:1 ~counts:[| 1; 1 |] ~f:0
              ~out:[| 0.; 0. |]));
    t "sweep allocates nothing on a 10^4-row slab" (fun () ->
        let rows = 10_000 and width = 9 in
        (* Rows in descending order: the insertion sort does its most
           work, and every comparison reads two floats. *)
        let slab =
          Array.init (rows * width) (fun i -> float_of_int (width - (i mod width)))
        in
        let counts = Array.make rows width in
        let out = Array.make rows 0. in
        let before = Gc.minor_words () in
        Sweep.sweep ~slab ~width ~counts ~f:2 ~out;
        let words = Gc.minor_words () -. before in
        check_float "minor words" 0. words;
        check_float "midpoint" 5. out.(0));
    t "degradation rule" (fun () ->
        check_int "empty" 0 (Sweep.g_of ~f:5 ~count:0);
        check_int "one" 0 (Sweep.g_of ~f:5 ~count:1);
        check_int "four" 1 (Sweep.g_of ~f:5 ~count:4);
        check_int "full attendance" 2 (Sweep.g_of ~f:2 ~count:7));
  ]

let soa_tests =
  [
    t "ring neighbours wrap and are distinct" (fun () ->
        let m = Soa.create ~n:10 ~degree:3 () in
        check_int "j=0" 4 (Soa.in_neighbor m ~dst:5 0);
        check_int "j=2" 2 (Soa.in_neighbor m ~dst:5 2);
        check_int "wrap" 9 (Soa.in_neighbor m ~dst:0 0);
        check_int "wrap deep" 7 (Soa.in_neighbor m ~dst:0 2));
    t "same seed, same model; different seed, different delays" (fun () ->
        let a = Soa.create ~n:64 ~seed:3 () in
        let b = Soa.create ~n:64 ~seed:3 () in
        let c = Soa.create ~n:64 ~seed:4 () in
        let same = ref true and diff = ref false in
        for p = 0 to 63 do
          if Soa.broadcast_time a p <> Soa.broadcast_time b p then same := false;
          if Soa.broadcast_time a p <> Soa.broadcast_time c p then diff := true
        done;
        check_true "seed 3 twice agrees" !same;
        check_true "seed 4 differs somewhere" !diff);
    t "round event count is exact on a clean ring" (fun () ->
        (* All nonfaulty: every process contributes degree arrivals plus a
           round timer. *)
        let m = Soa.create ~n:50 ~degree:5 () in
        let events, _ = Scale.round ~jobs:1 m in
        check_int "n (degree + 1)" (50 * 6) events);
    t "crash removes a row and its out-edges" (fun () ->
        let m = Soa.create ~n:50 ~degree:5 () in
        Soa.crash m 10;
        let events, _ = Scale.round ~jobs:1 m in
        (* Its own row (5 arrivals + timer) and one arrival in each of its
           5 successors' rows are gone. *)
        check_int "minus row and edges" ((50 * 6) - 6 - 5) events);
    t "estimates land within eps of the sender's round start" (fun () ->
        let m = Soa.create ~n:40 ~degree:4 ~eps:0.002 ~seed:5 () in
        let s = Soa.run_shard m ~lo:0 ~hi:40 in
        let width = Soa.width m in
        for row = 0 to 39 do
          check_int "full row" (width) s.Soa.counts.(row);
          (* Slot 0 is the exact self-sample; arrivals follow. *)
          for c = 1 to s.Soa.counts.(row) - 1 do
            let est = s.Soa.slab.((row * width) + c) in
            let ok = ref false in
            for j = 0 to Soa.degree m - 1 do
              let src = Soa.in_neighbor m ~dst:row j in
              if Float.abs (est -. Soa.report_time m src) <= 0.002 +. 1e-9 then
                ok := true
            done;
            check_true "within eps of some in-neighbour" !ok
          done
        done);
  ]

(* The direct fill against the canonical event stream: for every
   destination, the sorted estimate row equals its own broadcast time plus
   the reference arrivals' times minus delta, and the shards' event counts
   add up to the stream's length - over ring, grid and expander graphs with
   crash and pull rows, and a random shard cut. *)
let fill_gen =
  QCheck2.Gen.(
    let* n = int_range 16 120 in
    let* degree = int_range 1 9 in
    let* f = int_range 0 3 in
    let* seed = int_range 0 10_000 in
    let* topo = int_range 0 2 in
    let* crashed = list_size (int_range 0 4) (int_range 0 (n - 1)) in
    let* pulled = list_size (int_range 0 4) (int_range 0 (n - 1)) in
    let* cut = int_range 1 (n - 1) in
    pure (n, degree, f, seed, topo, crashed, pulled, cut))

let print_fill (n, degree, f, seed, topo, crashed, pulled, cut) =
  let ints l = String.concat ";" (List.map string_of_int l) in
  Printf.sprintf "n=%d degree=%d f=%d seed=%d topo=%d crashed=[%s] pulled=[%s] cut=%d"
    n degree f seed topo (ints crashed) (ints pulled) cut

let delta = 0.01

let fill_model ?mode (n, degree, f, seed, topo, crashed, pulled, _) =
  let graph =
    match topo with
    | 0 -> Graph.ring ~n ~degree:(min degree (n - 1))
    | 1 -> Graph.grid ~rows:(n / 8) ~cols:8
    | _ -> Graph.expander ~n ~degree:(max 2 degree) ~seed
  in
  let n = Graph.n graph in
  let m =
    Soa.create ~graph ~f ~seed ~delta ~eps:0.002 ~dispersion:0.5 ?mode ~n ()
  in
  List.iter (fun p -> if p < n then Soa.crash m p) crashed;
  List.iter (fun p -> if p < n then Soa.set_pull m p 0.05) pulled;
  m

let sorted_floats l = List.sort Float.compare l

let fill_tests =
  [
    qcheck
      (QCheck2.Test.make ~count:300 ~print:print_fill
         ~name:"run_shard rows are the reference arrivals minus delta" fill_gen
         (fun ((_, _, _, _, _, _, _, cut) as case) ->
           let m = fill_model case in
           let n = Soa.n m and width = Soa.width m in
           let cut = min cut (n - 1) in
           let shards =
             [ Soa.run_shard m ~lo:0 ~hi:cut; Soa.run_shard m ~lo:cut ~hi:n ]
           in
           let times, keys = Soa.events m in
           let arrivals = Array.make n [] in
           Array.iteri
             (fun i k ->
               if Soa.key_prio k = 0 then begin
                 let dst = Soa.key_id k / Soa.stride m in
                 arrivals.(dst) <- (times.(i) -. delta) :: arrivals.(dst)
               end)
             keys;
           let row_ok (s : Soa.shard) dst =
             let row = dst - s.Soa.lo in
             let got = Array.sub s.Soa.slab (row * width) s.Soa.counts.(row) in
             let want =
               if Soa.is_ok m dst then Soa.broadcast_time m dst :: arrivals.(dst)
               else []
             in
             sorted_floats (Array.to_list got) = sorted_floats want
           in
           List.for_all
             (fun (s : Soa.shard) ->
               List.for_all (row_ok s)
                 (List.init (s.Soa.hi - s.Soa.lo) (( + ) s.Soa.lo)))
             shards
           && List.fold_left (fun acc s -> acc + s.Soa.count) 0 shards
              = Array.length times));
  ]

(* The fused round against its layers: Scale.round fills and reduces one
   scratch row at a time; the layered round fills a slab with run_shard,
   sweeps it, applies and advances.  Two identically built models must
   stay on one trajectory - event counts, state checksums and every
   correction bit-equal - in both correction modes and at any job
   count. *)
let layered_round m =
  let n = Soa.n m in
  let s = Soa.run_shard m ~lo:0 ~hi:n in
  let mids = Array.make n Float.nan in
  Sweep.sweep ~slab:s.Soa.slab ~width:(Soa.width m) ~counts:s.Soa.counts
    ~f:(Soa.f m) ~out:mids;
  Soa.apply m ~lo:0 mids;
  Soa.advance m;
  s.Soa.count

let fused_gen =
  QCheck2.Gen.(
    let* case = fill_gen in
    let* mode =
      oneofl [ Soa.Midpoint; Soa.Gradient_avg 0.5; Soa.Gradient_avg 1.0 ]
    in
    let* jobs = oneofl [ 1; 3 ] in
    pure (case, mode, jobs))

let print_fused (case, mode, jobs) =
  Printf.sprintf "%s mode=%s jobs=%d" (print_fill case)
    (match mode with
    | Soa.Midpoint -> "midpoint"
    | Soa.Gradient_avg g -> Printf.sprintf "gradient %g" g)
    jobs

let fused_tests =
  [
    qcheck
      (QCheck2.Test.make ~count:200 ~print:print_fused
         ~name:"fused round matches run_shard, sweep, apply, advance" fused_gen
         (fun (case, mode, jobs) ->
           let fused = fill_model ~mode case in
           let layered = fill_model ~mode case in
           let n = Soa.n fused in
           List.for_all
             (fun _ ->
               let ev, _ = Scale.round ~jobs fused in
               let ev' = layered_round layered in
               ev = ev'
               && Scale.state_checksum fused = Scale.state_checksum layered
               && List.for_all
                    (fun p ->
                      Int64.equal
                        (Int64.bits_of_float (Soa.corr fused p))
                        (Int64.bits_of_float (Soa.corr layered p)))
                    (List.init n Fun.id))
             [ 1; 2; 3 ]));
    t "fused round allocates under two words per process" (fun () ->
        (* The layered round's slab alone is n * width words; the fused
           round keeps its per-row midpoints and a scratch row per
           worker. *)
        let n = 10_000 in
        let m = Soa.create ~n ~degree:8 ~f:2 ~seed:7 () in
        ignore (Scale.round ~jobs:1 m);
        let words () =
          let minor, promoted, major = Gc.counters () in
          minor +. major -. promoted
        in
        let before = words () in
        ignore (Scale.round ~jobs:1 m);
        let used = words () -. before in
        check_true
          (Printf.sprintf "%.0f words for n = %d" used n)
          (used < 2. *. float_of_int n));
  ]

let scale_model () =
  let m = Soa.create ~n:500 ~degree:7 ~f:2 ~seed:11 ~dispersion:0.5 () in
  Soa.crash m 17;
  Soa.set_pull m 42 0.3;
  Soa.set_pull m 499 (-0.2);
  m

let scale_tests =
  [
    t "trajectory and merge checksum are worker-count invariant" (fun () ->
        (* The merge checksum through the reference oracle, the midpoint
           digest through Scale.run; both drives share one trajectory. *)
        let run jobs =
          let m = scale_model () in
          let events, merge = Scale.reference_run ~jobs ~rounds:3 m in
          let s = Scale.run ~jobs ~rounds:3 (scale_model ()) in
          check_int "round events match the reference stream" events
            s.Scale.events;
          check_true "both drives reach one state"
            (Scale.state_checksum m = s.Scale.state);
          (events, merge, s.Scale.checksum, s.Scale.state)
        in
        let e1, c1, d1, st1 = run 1 in
        List.iter
          (fun jobs ->
            let e, c, d, st = run jobs in
            let tag what = Printf.sprintf "%s %d jobs" what jobs in
            check_int (tag "events") e1 e;
            check_true (tag "merge checksum") (c1 = c);
            check_true (tag "midpoint digest") (d1 = d);
            check_true (tag "state") (st1 = st))
          [ 3; 4 ]);
    t "reduced midpoint contracts the dispersion" (fun () ->
        let m = Soa.create ~n:400 ~degree:8 ~f:2 ~seed:2 ~dispersion:1.0 () in
        let s = Scale.run ~jobs:1 ~rounds:4 m in
        check_true "spread0 near dispersion" (s.Scale.spread0 > 0.5);
        check_true "contracted" (s.Scale.spread1 < 0.7 *. s.Scale.spread0));
    t "faulty processes never adjust" (fun () ->
        let m = scale_model () in
        let s = Scale.run ~jobs:1 ~rounds:2 m in
        check_true "ran" (s.Scale.events > 0);
        check_float "crashed corr untouched" 0. (Soa.corr m 17);
        check_float "pull corr untouched" 0. (Soa.corr m 42));
  ]

(* The monitored identity: an experiment run with telemetry on and the
   online theorem checks live renders byte-identical tables at 1 and 4
   workers, and its canonical registry and monitor records - first
   violations and their message provenance included - are identical
   too. *)
let monitored ~quick ~jobs id =
  let e =
    List.filter
      (fun e -> String.equal e.Csync_harness.Experiment.id id)
      Registry.all
  in
  check_int (id ^ " exists") 1 (List.length e);
  let reg = Csync_obs.Registry.create () in
  let mon = Mon.create () in
  Csync_obs.Registry.install reg;
  Mon.install mon;
  let tables =
    Fun.protect
      ~finally:(fun () ->
        Csync_obs.Registry.clear_installed ();
        Mon.clear_installed ())
      (fun () ->
        Registry.run_list ~jobs ~quick e
        |> List.concat_map (fun (_, tables) ->
               List.map Csync_metrics.Table.to_csv tables)
        |> String.concat "\n")
  in
  let records =
    Csync_obs.Registry.records reg @ Mon.records mon
    |> Csync_obs.Record.canonical
    |> List.map (fun r -> Csync_obs.Json.to_string (Csync_obs.Record.to_json r))
  in
  (tables, records, Mon.checks_performed mon, Mon.violations_total mon)

let check_identity ~quick id =
  let out1, rec1, checks1, viol1 = monitored ~quick ~jobs:1 id in
  let out4, rec4, checks4, viol4 = monitored ~quick ~jobs:4 id in
  check_true "tables nonempty" (String.length out1 > 0);
  Alcotest.(check string) "tables" out1 out4;
  Alcotest.(check (list string)) "canonical records" rec1 rec4;
  check_int "monitor checks" checks1 checks4;
  check_int "monitor violations" viol1 viol4;
  viol1

let monitored_identity_tests =
  [
    t "monitored E1 tables byte-identical at 1 and 4 workers" (fun () ->
        check_int "no violations" 0 (check_identity ~quick:true "E1"));
    (* Full mode: chaos (E13) and state corruption (E15) produce first
       violations with provenance, which must not depend on which worker
       minted what. *)
    t "monitored E13 and E15 canonical records identical at 1 and 4 workers"
      (fun () ->
        List.iter
          (fun id ->
            check_true (id ^ " records violations")
              (check_identity ~quick:false id > 0))
          [ "E13"; "E15" ]);
  ]

(* The observability tentpole's identity: the canonical binary trace of a
   telemetry-on scale run is byte-identical at any worker count - and
   telemetry never perturbs the trajectory. *)
module Obs = Csync_obs.Registry
module Record = Csync_obs.Record
module Btrace = Csync_obs.Btrace
module Report = Csync_obs.Report
module Diff = Csync_obs.Diff

let big_model ~n () =
  let m = Soa.create ~n ~degree:8 ~f:2 ~seed:11 ~dispersion:0.5 () in
  Soa.crash m 17;
  Soa.set_pull m 42 0.3;
  m

let result_key (s : Scale.stats) =
  (s.Scale.events, s.Scale.checksum, s.Scale.state)

(* Run with telemetry captured; return the result key and the canonical
   records of the trace. *)
let captured ~jobs ~rounds ~n () =
  let reg = Obs.create () in
  Obs.install reg;
  let stats =
    Fun.protect ~finally:Obs.clear_installed (fun () ->
        Scale.run ~jobs ~rounds (big_model ~n ()))
  in
  (result_key stats, Record.canonical (Obs.records reg))

let btrace_bytes records =
  let path = Filename.temp_file "csync_scale" ".btrace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Btrace.write_file path records;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

let trace_identity_tests =
  [
    t "canonical binary trace byte-identical: jobs 1/4" (fun () ->
        let k1, r1 = captured ~jobs:1 ~rounds:2 ~n:10_000 () in
        let k4, r4 = captured ~jobs:4 ~rounds:2 ~n:10_000 () in
        check_true "results identical across jobs" (k1 = k4);
        check_true "trace has telemetry" (List.length r1 > 3);
        check_true "bytes identical across jobs"
          (String.equal (btrace_bytes r1) (btrace_bytes r4)));
    t "telemetry leaves the scale trajectory untouched" (fun () ->
        let plain = result_key (Scale.run ~jobs:2 ~rounds:2 (big_model ~n:2000 ())) in
        let traced, _ = captured ~jobs:2 ~rounds:2 ~n:2000 () in
        check_true "identical" (plain = traced));
    t "report --diff of captures at different jobs: no differences" (fun () ->
        let _, r1 = captured ~jobs:1 ~rounds:2 ~n:2000 () in
        let _, r4 = captured ~jobs:4 ~rounds:2 ~n:2000 () in
        let buf = Buffer.create 256 in
        let ppf = Format.formatter_of_buffer buf in
        Diff.render ppf ~name_a:"jobs1" ~name_b:"jobs4"
          (Report.of_records r1) (Report.of_records r4);
        Format.pp_print_flush ppf ();
        check_true "diff is clean"
          (Helpers.contains (Buffer.contents buf) "no differences"));
  ]

let suite =
  List.concat
    [
      sweep_tests; soa_tests; fill_tests; fused_tests; scale_tests; monitored_identity_tests;
      trace_identity_tests;
    ]
