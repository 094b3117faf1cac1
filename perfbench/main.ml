(* The repository benchmark's measuring program (see NOTES.md).

   One process runs one thing: either a workload's untraced measurement
   (end-to-end metrics) or one group of the traced run (per-layer metrics),
   so no measurement shares a heap with another's inputs.  The last line
   of standard output is a JSON object
   {"correct", "attempted", "failed", "metrics"}; everything human-readable
   goes to standard error.  run.py builds this program and drives it. *)

module Registry = Csync_harness.Registry
module Experiment = Csync_harness.Experiment
module Scale = Csync_harness.Scale
module Soa = Csync_process.Soa
module Sweep = Csync_core.Sweep
module Scope = Csync_check.Scope
module Explorer = Csync_check.Explorer
module Obs = Csync_obs.Registry
module Monitor = Csync_obs.Monitor
module Record = Csync_obs.Record
module Btrace = Csync_obs.Btrace
module Report = Csync_obs.Report
module Json = Csync_obs.Json

(* Monotonic, nanosecond resolution. *)
let now () = float_of_int (Csync_runtime.Wall_clock.mono_ns ()) *. 1e-9

let nproc = max 1 (Domain.recommended_domain_count ())

type cfg = {
  workload : string;
  seed : int;
  seconds : float;
  small : bool;  (** self-test sizes: quick suite, n = 10^4, depth-1 scope *)
  wrong_pins : bool;  (** perturb every pinned value (self-test) *)
}

(* Where traces and span files go, under the benchmark's directory. *)
let out_dir = Filename.concat "perfbench" "_out"

(* ---------- results ---------- *)

let metrics : (string * float * string) list ref = ref []

let metric name unit_ value = metrics := (name, value, unit_) :: !metrics

let attempted = ref 0

let failed = ref 0

(* Every operation of every workload goes through here. *)
let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "FAILED: %s\n%!" what
  end

let print_result () =
  let m =
    List.rev_map
      (fun (name, value, unit_) ->
        (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit_) ]))
      !metrics
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (!failed = 0));
            ("attempted", Json.num_of_int !attempted);
            ("failed", Json.num_of_int !failed);
            ("metrics", Json.Obj m);
          ]))

(* ---------- statistics ---------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest nearest-rank percentile with at least ten samples above
   it, or None below eleven samples. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 11 then None
  else
    let p = 100 * (n - 10) / n in
    let rank = max 1 ((p * n + 99) / 100) in
    Some (p, a.(rank - 1))

let summarize label xs =
  let n = List.length xs in
  let a = sorted xs in
  Printf.eprintf "%s: n=%d median %.6f s, min %.6f, max %.6f%s\n%!" label n
    (median xs) a.(0)
    a.(n - 1)
    (match tail xs with
    | Some (p, v) -> Printf.sprintf ", p%d %.6f" p v
    | None -> " (too few samples for a tail percentile)")

(* Words allocated by this domain.  Gc counters are per domain on OCaml 5,
   so this is only read around work that runs at jobs 1. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1048576.

(* The reference loop: fixed code that calls no library of this
   repository, so no change to the program moves its time.  The host this
   benchmark was built on changes speed by up to 2x in phases of 10-60 s
   (a busy neighbour on the same core: CPU time moves with wall time,
   steal time does not).  Dividing an operation's time by the reference
   loop's time measured next to it cancels that drift.  The loop mixes
   the kinds of work the simulations do, because each kind slows by a
   different share: an integer loop over an L1-resident array, sorting a
   list, and inserting into a balanced map.  Alone, the integer loop
   over-corrects the suite render by about 2x.  Its live data stay
   under 2,000 words, so a minor collection promotes almost nothing and
   the loop does not move the peak heap. *)
let reference_words = Array.init 4096 (fun i -> i)

module Int_map = Map.Make (Int)

let reference_loop () =
  let s = ref 0 in
  for r = 1 to 5120 do
    for i = 0 to Array.length reference_words - 1 do
      s := !s + ((reference_words.(i) lxor r) * 31)
    done
  done;
  let x = ref 12345 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    !x
  in
  for _ = 1 to 240 do
    s := !s + List.hd (List.sort compare (List.init 500 (fun _ -> next ())))
  done;
  let m = ref Int_map.empty in
  for _ = 1 to 40000 do
    let k = next () in
    m := Int_map.add (k land 0xff) k !m
  done;
  !s + Int_map.cardinal !m

(* Wall time of the reference loop run at once on [domains] domains, the
   parallelism of the operation it is compared with. *)
let reference ~domains =
  let t = now () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn reference_loop) in
  let x = List.fold_left (fun acc d -> acc + Domain.join d) (reference_loop ()) others in
  ignore (Sys.opaque_identity x);
  now () -. t

(* An operation's cost: its time over the mean of the reference times
   measured just before and just after it. *)
let cost dt ~before ~after = dt /. ((before +. after) /. 2.)

(* Run [f] until [seconds] have passed (at least once), timing each call
   and the reference loop around it; [after] checks each result outside
   the timed interval.  Returns the times, the costs and the last
   result. *)
let timed_loop ~seconds f after =
  let t0 = now () in
  let times = ref [] and costs = ref [] in
  let last = ref None in
  let before = ref (reference ~domains:1) in
  while !times = [] || now () -. t0 < seconds do
    let t = now () in
    let r = f () in
    let dt = now () -. t in
    let next = reference ~domains:1 in
    times := dt :: !times;
    costs := cost dt ~before:!before ~after:next :: !costs;
    before := next;
    after r;
    last := Some r
  done;
  (List.rev !times, List.rev !costs, Option.get !last)

(* Per-call time of a cheap set-up step, in batches of at least 30 ms so
   the clock's resolution does not matter.  Returns [sample], which takes
   a batch at most once a second (always, with [~force]) so that batches
   spread over the run and see the same machine as the operations, and a
   function giving the batches' median. *)
let setup_sampler f =
  let batch k =
    let t = now () in
    for _ = 1 to k do
      ignore (Sys.opaque_identity (f ()))
    done;
    now () -. t
  in
  let rec calibrate k = if batch k >= 0.03 || k >= 1 lsl 24 then k else calibrate (2 * k) in
  let k = calibrate 1 in
  let samples = ref [] in
  let last = ref Float.neg_infinity in
  let sample ?(force = false) () =
    if force || now () -. !last >= 1.0 then begin
      samples := (batch k /. float_of_int k) :: !samples;
      last := now ()
    end
  in
  (sample, fun () -> median !samples)

(* ---------- spans ---------- *)

(* Spans recorded from this program around calls into the libraries'
   public functions: name, start, end, parent.  Kept in memory, written
   out when the process ends, and only recorded in the traced run. *)
module Span = struct
  type t = { id : int; name : string; parent : int; start : float; stop : float }

  let enabled = ref false

  let recorded : t list ref = ref []

  let next = ref 0

  let stack = ref [ 0 ]

  let run name f =
    if not !enabled then f ()
    else begin
      incr next;
      let id = !next in
      let parent = List.hd !stack in
      stack := id :: !stack;
      let start = now () in
      Fun.protect
        ~finally:(fun () ->
          let stop = now () in
          stack := List.tl !stack;
          recorded := { id; name; parent; start; stop } :: !recorded)
        f
    end

  let durations name =
    List.filter_map
      (fun s -> if s.name = name then Some (s.stop -. s.start) else None)
      (List.rev !recorded)

  let last name =
    match List.rev (durations name) with d :: _ -> d | [] -> Float.nan

  let self_time s =
    List.fold_left
      (fun acc c -> if c.parent = s.id then acc -. (c.stop -. c.start) else acc)
      (s.stop -. s.start) !recorded

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        output_string oc
          (Json.to_string
             (Json.Obj
                [
                  ("id", Json.num_of_int s.id);
                  ("name", Json.Str s.name);
                  ("parent", Json.num_of_int s.parent);
                  ("start", Json.Num s.start);
                  ("end", Json.Num s.stop);
                  ("self_s", Json.Num (self_time s));
                ]));
        output_char oc '\n')
      (List.rev !recorded);
    close_out oc
end

(* ---------- inputs and pins ---------- *)

let suite_ids = [ "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8"; "E9"; "E10";
                  "E11"; "E12"; "E13"; "E15" ]

let suite_experiments () =
  List.map
    (fun id ->
      match Registry.find id with
      | Some e -> e
      | None -> failwith ("no experiment " ^ id))
    suite_ids

let render ~jobs ~quick exps =
  let b = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer b in
  Registry.render_list ~jobs ppf ~quick exps;
  Format.pp_print_flush ppf ();
  Buffer.contents b

let digest s = Digest.to_hex (Digest.string s)

let perturb_digest cfg d =
  if cfg.wrong_pins then String.init (String.length d) (fun i -> d.[String.length d - 1 - i])
  else d

let suite_pin cfg =
  perturb_digest cfg (if cfg.small then Pins.suite_quick else Pins.suite_full)

let scale_n cfg = if cfg.small then 10_000 else 1_000_000

(* The model seed: the benchmark's seed reduced onto the sixteen seeds
   whose state checksums are pinned. *)
let model_seed cfg = ((cfg.seed mod 16) + 16) mod 16

(* Rounds pinned per seed: [Scale.state_checksum] after rounds 1 .. 7
   from [Soa.create]. *)
let scale_rounds = 7

let scale_pin cfg round =
  let table = if cfg.small then Pins.scale_small else Pins.scale_full in
  table.(model_seed cfg).(round - 1) + if cfg.wrong_pins then 1 else 0

let scale_create cfg =
  Soa.create ~n:(scale_n cfg) ~degree:8 ~f:2 ~seed:(model_seed cfg) ()

let check_scope cfg =
  let scope = Scope.preset_exn "agreement-n3f1" in
  if cfg.small then { scope with Scope.depth = 1 } else scope

let check_pin cfg =
  let states, deduped, transitions, sims =
    if cfg.small then Pins.check_small else Pins.check_full
  in
  (states + (if cfg.wrong_pins then 1 else 0), deduped, transitions, sims)

let explorer_ok cfg (r : Explorer.result) =
  let s = r.Explorer.stats in
  (s.Explorer.states, s.Explorer.deduped, s.Explorer.transitions, s.Explorer.sims)
  = check_pin cfg
  && r.Explorer.violations = [] && not s.Explorer.truncated

(* Program counters from an installed registry, summed over cell labels. *)
let counter_sum reg pred =
  List.fold_left
    (fun acc j ->
      match Record.of_json j with
      | Ok (Record.Counter (name, v)) when pred (snd (Record.split_name name)) ->
        acc + v
      | _ -> acc)
    0 (Obs.dump reg)

let counter reg base = counter_sum reg (String.equal base)

let with_obs ?(monitor = false) f =
  let reg = Obs.create () in
  let mon = if monitor then Monitor.create () else Monitor.none in
  Obs.install reg;
  if monitor then Monitor.install mon;
  let r =
    Fun.protect
      ~finally:(fun () ->
        Obs.clear_installed ();
        Monitor.clear_installed ())
      f
  in
  (r, reg, mon)

(* ---------- the trace round trip ---------- *)

type roundtrip = {
  tables : string;
  records : int;
  bytes : int;
  same_records : bool;
  warnings : string list;
  report_bytes : int;
}

(* What [csync trace] followed by [csync report] does, on the suite:
   telemetry and monitors on, render, dump, encode, decode, report. *)
let roundtrip cfg ~path exps =
  let tables, reg, mon =
    with_obs ~monitor:true (fun () ->
        Span.run "obs.render" (fun () -> render ~jobs:1 ~quick:cfg.small exps))
  in
  let records =
    Span.run "obs.dump" (fun () ->
        let manifest =
          Csync_obs.Manifest.make ~target:"paper-suite" ~seed:cfg.seed ~jobs:1
            ~quick:cfg.small ()
        in
        List.map
          (fun j ->
            match Record.of_json j with
            | Ok r -> r
            | Error e -> failwith ("dump produced a bad record: " ^ e))
          (manifest :: (Obs.dump reg @ Monitor.dump mon)))
  in
  Span.run "obs.btrace.encode" (fun () -> Btrace.write_file path records);
  let decoded =
    Span.run "obs.btrace.decode" (fun () ->
        Btrace.fold_file path ~init:[] ~f:(fun acc r -> r :: acc))
  in
  let decoded = match decoded with Ok l -> List.rev l | Error _ -> [] in
  let report = Report.of_records decoded in
  let report_bytes =
    Span.run "obs.report.render" (fun () ->
        let b = Buffer.create 65536 in
        let ppf = Format.formatter_of_buffer b in
        Report.render ppf report;
        Format.pp_print_flush ppf ();
        Buffer.length b)
  in
  {
    tables;
    records = List.length records;
    bytes = (Unix.stat path).Unix.st_size;
    same_records =
      List.compare_lengths records decoded = 0
      && List.for_all2 (fun a b -> compare a b = 0) records decoded;
    warnings = Report.warnings report;
    report_bytes;
  }

let roundtrip_ok cfg rt =
  digest rt.tables = suite_pin cfg
  && rt.same_records && rt.warnings = [] && rt.report_bytes > 0

let btrace_path cfg = Filename.concat out_dir (cfg.workload ^ ".btrace")

(* ---------- workloads: untraced, end-to-end metrics ---------- *)

(* Input construction for the suite: resolve the experiments and build
   their schedulable cells. *)
let suite_inputs cfg =
  let exps = suite_experiments () in
  (exps, List.map (Experiment.tasks ~quick:cfg.small) exps)

let paper_suite cfg =
  let sample_setup, setup = setup_sampler (fun () -> suite_inputs cfg) in
  for _ = 1 to 3 do
    sample_setup ~force:true ()
  done;
  let exps = suite_experiments () in
  let quick = cfg.small in
  let pin = suite_pin cfg in
  let checked s = check "paper-suite render matches the pinned digest" (digest s = pin) in
  (* An untimed warm-up of renders with nothing else running.  The peak
     heap is read after it, before the reference loop has allocated. *)
  let t0 = now () in
  while now () -. t0 < Float.min 3. (cfg.seconds /. 10.) do
    checked (render ~jobs:1 ~quick exps)
  done;
  let peak = peak_heap_mb () in
  let times, costs, one =
    timed_loop ~seconds:cfg.seconds
      (fun () -> render ~jobs:1 ~quick exps)
      (fun s ->
        checked s;
        sample_setup ())
  in
  let many = render ~jobs:nproc ~quick exps in
  check
    (Printf.sprintf "paper-suite tables identical at jobs 1 and jobs %d" nproc)
    (String.equal one many);
  (times, costs, setup (), peak)

let scale_ring cfg =
  let setups = ref [] in
  let model = ref None in
  let m () = Option.get !model in
  (* The previous model is dropped and collected before each create, so
     only one is ever live. *)
  let fresh () =
    model := None;
    Gc.full_major ();
    let t = now () in
    model := Some (scale_create cfg);
    setups := (now () -. t) :: !setups
  in
  (* A create's time varies by 2x from one call to the next (fresh
     pages), so the set-up median needs several: three extra up front,
     and one per block. *)
  for _ = 1 to 4 do
    fresh ()
  done;
  (* A block is a fresh model driven through [block_rounds] pinned rounds,
     short enough that the creates spread over the run; the run's first
     round is an untimed warm-up. *)
  let block_rounds = 3 in
  let spread0 = ref (Soa.spread (m ())) in
  let round = ref 0 in
  (* Each round starts from a collected heap: without this, when the
     previous rounds' ~200 MB of shard arrays are freed depends on GC
     pacing across domains, and the peak heap wanders by 20%. *)
  let step () =
    Gc.full_major ();
    let before = reference ~domains:nproc in
    let t = now () in
    ignore (Sys.opaque_identity (Scale.round ~jobs:nproc (m ())));
    let dt = now () -. t in
    let after = reference ~domains:nproc in
    incr round;
    check
      (Printf.sprintf "scale round %d: state checksum matches the pin" !round)
      (Scale.state_checksum (m ()) = scale_pin cfg !round);
    (dt, cost dt ~before ~after)
  in
  let close_block () =
    check "scale spread contracts over the block" (Soa.spread (m ()) < !spread0)
  in
  ignore (step ());
  let times = ref [] in
  let t0 = now () in
  while !times = [] || now () -. t0 < cfg.seconds do
    if !round = block_rounds then begin
      close_block ();
      fresh ();
      spread0 := Soa.spread (m ());
      round := 0
    end;
    times := step () :: !times
  done;
  close_block ();
  let times, costs = List.split (List.rev !times) in
  (times, costs, median !setups, peak_heap_mb ())

let workloads = [ ("paper-suite", paper_suite); ("scale-ring-1m", scale_ring) ]

let untraced cfg =
  let run =
    match List.assoc_opt cfg.workload workloads with
    | Some f -> f
    | None -> failwith ("unknown workload " ^ cfg.workload)
  in
  let times, costs, setup, peak = run cfg in
  summarize (cfg.workload ^ " op") times;
  Printf.eprintf "%s op cost: median %.6g reference loops\n%!" cfg.workload (median costs);
  Printf.eprintf "%s setup: median %.6g s\n%!" cfg.workload setup;
  metric "op_cost" "ref" (median costs);
  metric "setup_s" "s" setup;
  metric "peak_heap_mb" "MB" peak

(* ---------- traced run: per-layer metrics, one group per process ---------- *)

let group_suite cfg =
  let exps = suite_experiments () in
  let quick = cfg.small in
  let pin = suite_pin cfg in
  for _ = 1 to 3 do
    List.iter
      (fun (e : Experiment.t) ->
        Gc.full_major ();
        Span.run ("exp." ^ e.Experiment.id) (fun () ->
            ignore (Registry.run_list ~jobs:1 ~quick [ e ])))
      exps
  done;
  List.iter
    (fun (e : Experiment.t) ->
      let id = e.Experiment.id in
      metric ("exp." ^ id ^ "_s") "s" (median (Span.durations ("exp." ^ id))))
    exps;
  let allocs =
    List.init 3 (fun _ ->
        Gc.full_major ();
        let a = alloc_words () in
        let s = Span.run "suite.render.jobs1" (fun () -> render ~jobs:1 ~quick exps) in
        check "suite render matches the pinned digest" (digest s = pin);
        alloc_words () -. a)
  in
  let one = median (Span.durations "suite.render.jobs1") in
  for _ = 1 to 3 do
    Gc.full_major ();
    let s = Span.run "suite.render.jobsN" (fun () -> render ~jobs:nproc ~quick exps) in
    check "suite render at jobs N matches the pinned digest" (digest s = pin)
  done;
  let many = median (Span.durations "suite.render.jobsN") in
  Gc.full_major ();
  let s, reg, _ =
    with_obs (fun () -> Span.run "suite.render.traced" (fun () -> render ~jobs:1 ~quick exps))
  in
  check "traced suite render matches the pinned digest" (digest s = pin);
  let events = counter reg "sim.events" in
  metric "sim.events" "count" (float_of_int events);
  metric "net.sent" "count" (float_of_int (counter reg "net.sent"));
  metric "sim.events_per_s" "1/s" (float_of_int events /. one);
  metric "alloc.words_per_event" "words/event" (median allocs /. float_of_int events);
  metric "pool.tasks" "count"
    (float_of_int
       (counter_sum reg (String.starts_with ~prefix:"pool.tasks.worker")));
  metric "pool.speedup" "x" (one /. many);
  metric "suite_s" "s" one;
  metric "tracing.overhead.suite_s" "s" (Span.last "suite.render.traced" -. one)

let group_scale cfg =
  let n = scale_n cfg in
  let round = ref 0 in
  let pin what m =
    incr round;
    check
      (Printf.sprintf "scale round %d (%s): state checksum matches the pin" !round what)
      (Scale.state_checksum m = scale_pin cfg !round)
  in
  Gc.full_major ();
  let m = Span.run "soa.create" (fun () -> scale_create cfg) in
  let spread0 = Soa.spread m in
  Span.run "scale.round.warmup" (fun () -> ignore (Scale.round ~jobs:nproc m));
  pin "warm-up" m;
  (* Scale.round at jobs 1 alternates with the layers it is made of,
     called in sequence at jobs 1 over the full destination range; each
     is timed twice and reported by its median. *)
  let jobs1 () =
    Gc.full_major ();
    let a = alloc_words () in
    let ev, _ = Span.run "scale.round.jobs1" (fun () -> Scale.round ~jobs:1 m) in
    pin "jobs 1" m;
    (ev, alloc_words () -. a)
  in
  let layers () =
    Gc.full_major ();
    let events =
      Span.run "scale.layers" (fun () ->
        let shard = Span.run "soa.run_shard" (fun () -> Soa.run_shard m ~lo:0 ~hi:n) in
        let mids = Array.make n Float.nan in
        Span.run "sweep.sweep" (fun () ->
            Sweep.sweep ~slab:shard.Soa.slab ~width:(Soa.width m)
              ~counts:shard.Soa.counts ~f:(Soa.f m) ~out:mids);
        Span.run "soa.apply" (fun () -> Soa.apply m ~lo:0 mids);
        Span.run "soa.advance" (fun () -> Soa.advance m);
        shard.Soa.count)
    in
    pin "layers in sequence" m;
    events
  in
  let ev1, alloc = jobs1 () in
  let events = layers () in
  ignore (jobs1 ());
  ignore (layers ());
  check "scale event count is the same through the layers and Scale.round"
    (ev1 = events);
  Gc.full_major ();
  Span.run "scale.round.jobsN" (fun () -> ignore (Scale.round ~jobs:nproc m));
  pin "jobs N" m;
  Gc.full_major ();
  let _, reg, _ =
    with_obs (fun () ->
        Span.run "scale.round.traced" (fun () -> ignore (Scale.round ~jobs:nproc m)))
  in
  pin "traced" m;
  check "scale.events counter matches the round's event count"
    (counter reg "scale.events" = events);
  let ck = Span.run "scale.state_checksum" (fun () -> Scale.state_checksum m) in
  check "state checksum is stable" (ck = Scale.state_checksum m);
  check "scale spread contracts" (Soa.spread m < spread0);
  let med name = median (Span.durations name) in
  let layer_sum =
    med "soa.run_shard" +. med "sweep.sweep" +. med "soa.apply" +. med "soa.advance"
  in
  metric "soa.create_s" "s" (med "soa.create");
  metric "soa.run_shard_s" "s" (med "soa.run_shard");
  metric "sweep.sweep_s" "s" (med "sweep.sweep");
  metric "soa.apply_s" "s" (med "soa.apply");
  metric "soa.advance_s" "s" (med "soa.advance");
  metric "scale.merge_residual_s" "s" (med "scale.round.jobs1" -. layer_sum);
  metric "scale.state_checksum_s" "s" (med "scale.state_checksum");
  metric "scale.events_per_round" "count" (float_of_int events);
  metric "scale.alloc_words_per_event" "words/event" (alloc /. float_of_int ev1);
  metric "scale.pool.speedup" "x" (med "scale.round.jobs1" /. med "scale.round.jobsN");
  metric "round_s" "s" (med "scale.round.jobsN");
  metric "tracing.overhead.round_s" "s"
    (med "scale.round.traced" -. med "scale.round.jobsN")

let group_check cfg =
  let scope = check_scope cfg in
  let run name jobs =
    Gc.full_major ();
    let r = Span.run name (fun () -> Explorer.run ~jobs scope) in
    check (name ^ ": counts exact and no violations") (explorer_ok cfg r);
    r
  in
  let r = run "explorer.run.jobs1" 1 in
  ignore (run "explorer.run.jobs1" 1);
  ignore (run "explorer.run.jobsN" nproc);
  let _, reg, _ = with_obs (fun () -> run "explorer.run.traced" 1) in
  let s = r.Explorer.stats in
  check "check.* counters match the explorer's stats"
    (counter reg "check.states" = s.Explorer.states
    && counter reg "check.transitions" = s.Explorer.transitions
    && counter reg "check.sims" = s.Explorer.sims
    && counter reg "check.deduped" = s.Explorer.deduped);
  let one = median (Span.durations "explorer.run.jobs1") in
  metric "check.states" "count" (float_of_int s.Explorer.states);
  metric "check.transitions" "count" (float_of_int s.Explorer.transitions);
  metric "check.sims" "count" (float_of_int s.Explorer.sims);
  metric "check.deduped" "count" (float_of_int s.Explorer.deduped);
  metric "check.dedup_ratio" "ratio"
    (float_of_int s.Explorer.deduped /. float_of_int s.Explorer.transitions);
  metric "check.sims_per_s" "1/s" (float_of_int s.Explorer.sims /. one);
  metric "check.pool.tasks" "count"
    (float_of_int
       (counter_sum reg (String.starts_with ~prefix:"pool.tasks.worker")));
  metric "check.pool.speedup" "x" (one /. Span.last "explorer.run.jobsN");
  metric "check_s" "s" one;
  metric "tracing.overhead.check_s" "s"
    (Span.last "explorer.run.traced" -. one)

let group_obs cfg =
  let exps = suite_experiments () in
  let path = btrace_path cfg in
  for _ = 1 to 3 do
    Gc.full_major ();
    ignore (Span.run "suite.render.jobs1" (fun () -> render ~jobs:1 ~quick:cfg.small exps))
  done;
  let plain = median (Span.durations "suite.render.jobs1") in
  (* The chain once without spans (untraced) and three times with them. *)
  Gc.full_major ();
  Span.enabled := false;
  let t = now () in
  let rt = roundtrip cfg ~path exps in
  let untraced = now () -. t in
  Span.enabled := true;
  check "trace round trip (untraced)" (roundtrip_ok cfg rt);
  let rts =
    List.init 3 (fun _ ->
        Gc.full_major ();
        Span.run "trace.roundtrip" (fun () -> roundtrip cfg ~path exps))
  in
  List.iter (fun rt -> check "trace round trip" (roundtrip_ok cfg rt)) rts;
  let rt = List.hd rts in
  let med name = median (Span.durations name) in
  metric "obs.record_s" "s" (med "obs.render" -. plain);
  metric "obs.dump_s" "s" (med "obs.dump");
  metric "obs.btrace.encode_s" "s" (med "obs.btrace.encode");
  metric "obs.btrace.bytes" "B" (float_of_int rt.bytes);
  metric "obs.records" "count" (float_of_int rt.records);
  metric "obs.btrace.decode_s" "s" (med "obs.btrace.decode");
  metric "obs.report.render_s" "s" (med "obs.report.render");
  metric "trace_s" "s" (med "trace.roundtrip");
  metric "tracing.overhead.trace_s" "s" (med "trace.roundtrip" -. untraced)

(* Each experiment's canonical capture (telemetry and monitors on) at
   jobs 1 against jobs N.  Canonical traces are documented as
   byte-identical across --jobs; this reports, by name, where they are
   not.  It is a finding about the program, not an operation of any
   workload, so it does not count towards [failed]. *)
let group_determinism cfg =
  let capture ~jobs e =
    let _, reg, mon =
      with_obs ~monitor:true (fun () -> render ~jobs ~quick:cfg.small [ e ])
    in
    let records =
      List.filter_map
        (fun j -> Result.to_option (Record.of_json j))
        (Obs.dump reg @ Monitor.dump mon)
    in
    digest
      (String.concat "\n"
         (List.map (fun r -> Json.to_string (Record.to_json r)) (Record.canonical records)))
  in
  let failing =
    List.filter_map
      (fun (e : Experiment.t) ->
        let d1 = Span.run "canonical.jobs1" (fun () -> capture ~jobs:1 e) in
        let dn = Span.run "canonical.jobsN" (fun () -> capture ~jobs:nproc e) in
        if d1 = dn then None else Some e.Experiment.id)
      (suite_experiments ())
  in
  Printf.eprintf "check canonical-trace-determinism (jobs 1 vs jobs %d): %s\n%!" nproc
    (if failing = [] then "ok"
     else "FAIL " ^ String.concat " " failing);
  metric "canonical.mismatches" "count" (float_of_int (List.length failing))

let groups =
  [
    ("suite", group_suite);
    ("scale", group_scale);
    ("check", group_check);
    ("obs", group_obs);
    ("determinism", group_determinism);
  ]

let traced cfg group =
  match List.assoc_opt group groups with
  | None -> failwith ("unknown group " ^ group)
  | Some f ->
    Span.enabled := true;
    f cfg;
    Span.write
      (Filename.concat out_dir
         (Printf.sprintf "%s-seed%d-%s.spans.jsonl" cfg.workload cfg.seed group))

(* ---------- pins ---------- *)

(* Print pins.ml from the current program: the values every later run is
   checked against. *)
let print_pins () =
  let base = { workload = "pins"; seed = 0; seconds = 0.; small = false;
               wrong_pins = false } in
  let exps = suite_experiments () in
  let scale small =
    Array.init 16 (fun s ->
        let cfg = { base with seed = s; small } in
        let m = scale_create cfg in
        Array.init scale_rounds (fun _ ->
            ignore (Scale.round ~jobs:nproc m);
            Scale.state_checksum m))
  in
  let pp_scale name a =
    Printf.printf "let %s =\n  [|\n" name;
    Array.iter
      (fun row ->
        Printf.printf "    [| %s |];\n"
          (String.concat "; " (Array.to_list (Array.map string_of_int row))))
      a;
    print_string "  |]\n\n"
  in
  let stats small =
    let s = (Explorer.run ~jobs:nproc (check_scope { base with small })).Explorer.stats in
    Printf.sprintf "(%d, %d, %d, %d)" s.Explorer.states s.Explorer.deduped
      s.Explorer.transitions s.Explorer.sims
  in
  print_string
    "(* Pinned outputs of the current program, printed by\n\
    \   [main.exe --print-pins].  Suite digests are MD5 of the rendered\n\
    \   tables; scale rows are Scale.state_checksum after rounds 1..7 for\n\
    \   model seeds 0..15; check tuples are (states, deduped, transitions,\n\
    \   sims). *)\n\n";
  Printf.printf "let suite_full = %S\n\n" (digest (render ~jobs:nproc ~quick:false exps));
  Printf.printf "let suite_quick = %S\n\n" (digest (render ~jobs:nproc ~quick:true exps));
  pp_scale "scale_small" (scale true);
  pp_scale "scale_full" (scale false);
  Printf.printf "let check_full = %s\n\nlet check_small = %s\n" (stats false) (stats true)

(* ---------- command line ---------- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.
  and small = ref false and wrong_pins = ref false and group = ref ""
  and pins = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--group", Arg.Set_string group, "G run one traced per-layer group");
      ("--small", Arg.Set small, " self-test sizes");
      ("--wrong-pins", Arg.Set wrong_pins, " perturb every pinned value");
      ("--print-pins", Arg.Set pins, " print pins.ml for the current program");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S [--group G]";
  if !pins then print_pins ()
  else begin
    if not (List.mem_assoc !workload workloads) then begin
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
    end;
    let cfg =
      { workload = !workload; seed = !seed; seconds = !seconds; small = !small;
        wrong_pins = !wrong_pins }
    in
    if !group = "" then untraced cfg else traced cfg !group;
    print_result ()
  end
