(* Tests for the simulation substrate: RNG, event queue, engine and trace
   recorder. *)

module Rng = Csync_sim.Rng
module Event_queue = Csync_sim.Event_queue
module Engine = Csync_sim.Engine
module Trace = Csync_sim.Trace
open Helpers

let t name f = Alcotest.test_case name `Quick f

let rng_tests =
  [
    t "rng deterministic" (fun () ->
        let a = Rng.create 7 and b = Rng.create 7 in
        for _ = 1 to 100 do
          check_true "same stream" (Rng.int64 a = Rng.int64 b)
        done);
    t "rng different seeds differ" (fun () ->
        let a = Rng.create 1 and b = Rng.create 2 in
        check_true "differ" (Rng.int64 a <> Rng.int64 b));
    t "copy preserves state" (fun () ->
        let a = Rng.create 5 in
        ignore (Rng.int64 a);
        let b = Rng.copy a in
        check_true "same next" (Rng.int64 a = Rng.int64 b));
    t "split independent of parent draws" (fun () ->
        let a = Rng.create 9 and b = Rng.create 9 in
        let sa = Rng.split a and sb = Rng.split b in
        ignore (Rng.int64 a);
        (* consuming the parent must not affect the child *)
        check_true "children agree" (Rng.int64 sa = Rng.int64 sb));
    t "float in [0,1)" (fun () ->
        let r = Rng.create 3 in
        for _ = 1 to 1000 do
          let x = Rng.float r in
          check_true "range" (x >= 0. && x < 1.)
        done);
    t "uniform respects bounds" (fun () ->
        let r = Rng.create 3 in
        for _ = 1 to 1000 do
          let x = Rng.uniform r ~lo:(-2.) ~hi:5. in
          check_true "range" (x >= -2. && x < 5.)
        done);
    t "uniform rejects inverted bounds" (fun () ->
        check_raises_invalid "lo>hi" (fun () ->
            Rng.uniform (Rng.create 1) ~lo:1. ~hi:0.));
    t "int range and error" (fun () ->
        let r = Rng.create 4 in
        for _ = 1 to 1000 do
          let x = Rng.int r 7 in
          check_true "range" (x >= 0 && x < 7)
        done;
        check_raises_invalid "n=0" (fun () -> Rng.int r 0));
    t "gaussian roughly standard" (fun () ->
        let r = Rng.create 11 in
        let n = 20_000 in
        let sum = ref 0. and sumsq = ref 0. in
        for _ = 1 to n do
          let x = Rng.gaussian r in
          sum := !sum +. x;
          sumsq := !sumsq +. (x *. x)
        done;
        let mean = !sum /. float_of_int n in
        let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
        check_true "mean ~0" (Float.abs mean < 0.05);
        check_true "var ~1" (Float.abs (var -. 1.) < 0.1));
    t "shuffle is a permutation" (fun () ->
        let a = Array.init 50 Fun.id in
        Rng.shuffle (Rng.create 2) a;
        let sorted = Array.copy a in
        Array.sort Int.compare sorted;
        Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted);
  ]

let queue_tests =
  [
    t "orders by time" (fun () ->
        let q = Event_queue.create () in
        Event_queue.add q ~time:2. ~prio:0 "b";
        Event_queue.add q ~time:1. ~prio:0 "a";
        check_true "a first" (Event_queue.pop q = Some (1., "a")));
    t "messages before timers at equal time (property 4)" (fun () ->
        let q = Event_queue.create () in
        Event_queue.add q ~time:1. ~prio:Event_queue.prio_timer "timer";
        Event_queue.add q ~time:1. ~prio:Event_queue.prio_message "msg";
        check_true "msg first" (Event_queue.pop q = Some (1., "msg"));
        check_true "timer second" (Event_queue.pop q = Some (1., "timer")));
    t "FIFO within same time and class" (fun () ->
        let q = Event_queue.create () in
        Event_queue.add q ~time:1. ~prio:0 "first";
        Event_queue.add q ~time:1. ~prio:0 "second";
        check_true "fifo" (Event_queue.pop q = Some (1., "first")));
    t "pop order is sorted" (fun () ->
        let q = Event_queue.create () in
        List.iteri
          (fun i tm -> Event_queue.add q ~time:tm ~prio:0 i)
          [ 5.; 1.; 4.; 1.; 3. ];
        let rec drain acc =
          match Event_queue.pop q with
          | None -> List.rev acc
          | Some x -> drain (x :: acc)
        in
        check_true "sorted, ties FIFO"
          (drain [] = [ (1., 1); (1., 3); (3., 4); (4., 2); (5., 0) ]));
    t "peek does not remove" (fun () ->
        let q = Event_queue.create () in
        Event_queue.add q ~time:2. ~prio:0 "x";
        check_true "peek" (Event_queue.peek_time q = Some 2.);
        check_int "size" 1 (Event_queue.size q);
        check_true "still pops" (Event_queue.pop q = Some (2., "x")));
    t "peek_time" (fun () ->
        let q = Event_queue.create () in
        check_true "empty" (Event_queue.peek_time q = None);
        Event_queue.add q ~time:3. ~prio:0 ();
        check_true "peek" (Event_queue.peek_time q = Some 3.));
    t "rejects non-finite time" (fun () ->
        check_raises_invalid "nan" (fun () ->
            Event_queue.add (Event_queue.create ()) ~time:Float.nan ~prio:0 ()));
  ]

let engine_tests =
  [
    t "now advances with events" (fun () ->
        let e = Engine.create () in
        Engine.schedule e ~time:5. ();
        ignore (Engine.next e);
        check_float "now" 5. (Engine.now e));
    t "rejects scheduling in the past" (fun () ->
        let e = Engine.create () in
        Engine.schedule e ~time:5. ();
        ignore (Engine.next e);
        check_raises_invalid "past" (fun () -> Engine.schedule e ~time:4. ()));
    t "run_until processes window and advances now" (fun () ->
        let e = Engine.create () in
        List.iter (fun tm -> Engine.schedule e ~time:tm tm) [ 1.; 2.; 7. ];
        let seen = ref [] in
        Engine.run_until e ~until:3. ~handler:(fun _ x -> seen := x :: !seen);
        Alcotest.(check (list (float 0.))) "window" [ 2.; 1. ] !seen;
        check_float "now" 3. (Engine.now e);
        check_int "pending" 1 (Engine.pending e));
    t "handler may schedule inside the window" (fun () ->
        let e = Engine.create () in
        Engine.schedule e ~time:1. `A;
        let seen = ref 0 in
        Engine.run_until e ~until:2. ~handler:(fun _ ev ->
            incr seen;
            match ev with `A -> Engine.schedule e ~time:1.5 `B | `B -> ());
        check_int "both" 2 !seen);
    t "run_until earlier than now is a no-op" (fun () ->
        let e = Engine.create ~start_time:10. () in
        Engine.run_until e ~until:5. ~handler:(fun _ () -> Alcotest.fail "no");
        check_float "now" 10. (Engine.now e));
    t "drain respects max_events" (fun () ->
        let e = Engine.create () in
        for i = 1 to 10 do
          Engine.schedule e ~time:(float_of_int i) ()
        done;
        let n = Engine.drain e ~handler:(fun _ () -> ()) ~max_events:3 in
        check_int "guard" 3 n;
        check_int "left" 7 (Engine.pending e));
    t "step returns false on empty" (fun () ->
        check_bool "empty" false
          (Engine.step (Engine.create ()) ~handler:(fun _ () -> ())));
  ]

let trace_tests =
  [
    t "disabled by default" (fun () ->
        let tr = Trace.create () in
        Trace.record tr ~time:1. "x";
        check_int "empty" 0 (Trace.length tr));
    t "records when enabled" (fun () ->
        let tr = Trace.create () in
        Trace.set_enabled tr true;
        Trace.record tr ~time:1. "x";
        Trace.recordf tr ~time:2. "y=%d" 7;
        Alcotest.(check (list (pair (float 0.) string)))
          "entries"
          [ (1., "x"); (2., "y=7") ]
          (Trace.to_list tr));
    t "ring buffer evicts oldest" (fun () ->
        let tr = Trace.create ~capacity:3 () in
        Trace.set_enabled tr true;
        List.iter (fun i -> Trace.record tr ~time:(float_of_int i) (string_of_int i))
          [ 1; 2; 3; 4; 5 ];
        check_int "capped" 3 (Trace.length tr);
        check_int "total" 5 (Trace.total tr);
        Alcotest.(check (list string))
          "latest three" [ "3"; "4"; "5" ]
          (List.map snd (Trace.to_list tr)));
    t "clear resets" (fun () ->
        let tr = Trace.create () in
        Trace.set_enabled tr true;
        Trace.record tr ~time:0. "x";
        Trace.clear tr;
        check_int "empty" 0 (Trace.length tr));
    t "capacity must be positive" (fun () ->
        check_raises_invalid "cap" (fun () -> ignore (Trace.create ~capacity:0 ())));
    qcheck ~count:300 ~name:"ring semantics for arbitrary capacity and load"
      QCheck2.Gen.(pair (int_range 1 10) (pair (int_range 0 40) (int_range 0 40)))
      (fun (capacity, (texts, delays)) ->
        let tr = Trace.create ~capacity () in
        Trace.set_enabled tr true;
        Trace.set_delays_enabled tr true;
        for i = 1 to texts do
          Trace.record tr ~time:(float_of_int i) (string_of_int i)
        done;
        for i = 1 to delays do
          Trace.record_delay tr ~sent:(float_of_int i) ~src:0 ~dst:1
            ~delay:(float_of_int i)
        done;
        (* Retention is capped; totals count evictions; both rings return
           exactly the newest entries, oldest-first. *)
        let expect_texts =
          List.init (min texts capacity) (fun j ->
              string_of_int (texts - min texts capacity + j + 1))
        in
        let expect_delays =
          List.init (min delays capacity) (fun j ->
              float_of_int (delays - min delays capacity + j + 1))
        in
        Trace.length tr = min texts capacity
        && Trace.total tr = texts
        && Trace.delays_total tr = delays
        && List.map snd (Trace.to_list tr) = expect_texts
        && List.map (fun c -> c.Trace.sent) (Trace.delays tr) = expect_delays);
  ]

(* The canonical-state model checker (lib/check) assumes the event order of
   a schedule is a pure function of (time, priority, insertion order) - no
   hidden heap nondeterminism.  The queue promises FIFO among exact ties
   (the [seq] field); this pins it down as a property over arbitrary
   insertion patterns, including heavy tie clusters. *)
let tie_break_tests =
  [
    qcheck ~count:300 ~name:"equal (time, prio) pops FIFO by insertion"
      QCheck2.Gen.(
        list_size (int_range 1 80) (pair (int_range 0 3) (int_range 0 1)))
      (fun entries ->
        let q = Event_queue.create () in
        List.iteri
          (fun i (tm, prio) ->
            Event_queue.add q ~time:(float_of_int tm) ~prio i)
          entries;
        let order = ref [] in
        let rec drain () =
          match Event_queue.pop q with
          | Some (_, i) ->
            order := i :: !order;
            drain ()
          | None -> ()
        in
        drain ();
        let keys = Array.of_list entries in
        let expected =
          List.stable_sort
            (fun a b -> compare keys.(a) keys.(b))
            (List.init (List.length entries) Fun.id)
        in
        List.rev !order = expected);
  ]

(* The queue's pop order must be exactly that of a sorted-list reference:
   pending entries kept in a list, each pop taking the head of
   [List.stable_sort] on (time, prio, seq) - time, then prio class, then
   FIFO insertion order.  Checked over any insertion pattern, including
   tie clusters, interleaved pops and adds earlier than the current
   minimum.  The time grid's spacing is drawn from milliseconds to 10^9 s,
   so clustered and wildly spread horizons are both exercised. *)
module Sorted_ref = struct
  type t = { mutable pending : (float * int * int * int) list; mutable seq : int }

  let create () = { pending = []; seq = 0 }

  let add r ~time ~prio id =
    r.pending <- (time, prio, r.seq, id) :: r.pending;
    r.seq <- r.seq + 1

  let pop_if_before r ~until =
    let by_key (ta, pa, sa, _) (tb, pb, sb, _) = compare (ta, pa, sa) (tb, pb, sb) in
    match List.stable_sort by_key r.pending with
    | (time, _, _, id) :: rest when time <= until ->
      r.pending <- rest;
      Some (time, id)
    | _ -> None

  let pop r = pop_if_before r ~until:Float.infinity

  let size r = List.length r.pending
end

let reference_tests =
  let drain_both q reference =
    let ok = ref true in
    let more = ref true in
    while !more do
      let a = Event_queue.pop q and b = reference () in
      if a <> b then ok := false;
      if a = None && b = None then more := false
    done;
    !ok
  in
  [
    qcheck ~count:500 ~name:"queue pops exactly the sorted-list reference order"
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 150)
             (frequency
                [
                  ( 4,
                    map2
                      (fun tm p -> `Add (tm, p))
                      (int_range 0 60) (int_range 0 3) );
                  (2, pure `Pop);
                ]))
          (int_range 0 3))
      (fun (ops, si) ->
        let spacing = [| 1e-3; 0.25; 7.5; 1e9 |].(si) in
        let q = Event_queue.create () in
        let reference = Sorted_ref.create () in
        let next_id = ref 0 in
        let ok = ref true in
        List.iter
          (fun op ->
            match op with
            | `Add (tm, p) ->
              let time = float_of_int tm *. spacing in
              Event_queue.add q ~time ~prio:p !next_id;
              Sorted_ref.add reference ~time ~prio:p !next_id;
              incr next_id
            | `Pop ->
              if Event_queue.pop q <> Sorted_ref.pop reference then
                ok := false)
          ops;
        !ok
        && Event_queue.size q = Sorted_ref.size reference
        && drain_both q (fun () -> Sorted_ref.pop reference));
    qcheck ~count:300
      ~name:"queue pop_if_before agrees with the sorted-list reference"
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 80)
             (pair (int_range 0 40) (int_range 0 1)))
          (list_size (int_range 1 40) (int_range 0 45)))
      (fun (adds, cuts) ->
        let q = Event_queue.create () in
        let reference = Sorted_ref.create () in
        List.iteri
          (fun i (tm, prio) ->
            let time = float_of_int tm in
            Event_queue.add q ~time ~prio i;
            Sorted_ref.add reference ~time ~prio i)
          adds;
        List.for_all
          (fun cut ->
            let until = float_of_int cut in
            Event_queue.pop_if_before q ~until
            = Sorted_ref.pop_if_before reference ~until)
          cuts
        && drain_both q (fun () -> Sorted_ref.pop reference));
    t "wide time spreads pop in order" (fun () ->
        let q = Event_queue.create () in
        let times = [ 17.; 3.; 4e9; 0.5; 22.; 22.; 8e-6; 39.5; 4.; 1e12 ] in
        List.iteri
          (fun i time -> Event_queue.add q ~time ~prio:0 i)
          times;
        let popped = ref [] in
        let rec go () =
          match Event_queue.pop q with
          | Some (time, _) ->
            popped := time :: !popped;
            go ()
          | None -> ()
        in
        go ();
        check_true "sorted"
          (List.rev !popped = List.sort compare times));
    t "iter_pop_until delivers in-window adds made by the callback" (fun () ->
        let q = Event_queue.create () in
        Event_queue.add q ~time:1. ~prio:0 `Seed;
        let seen = ref [] in
        let n =
          Event_queue.iter_pop_until q ~until:3. ~f:(fun time payload ->
              seen := (time, payload) :: !seen;
              if payload = `Seed then begin
                Event_queue.add q ~time:2. ~prio:0 `Child;
                Event_queue.add q ~time:9. ~prio:0 `Late
              end)
        in
        check_int "delivered both in-window events" 2 n;
        check_true "order" (List.rev !seen = [ (1., `Seed); (2., `Child) ]);
        check_int "late event still queued" 1 (Event_queue.size q));
    t "rejects out-of-range prio" (fun () ->
        check_raises_invalid "negative" (fun () ->
            Event_queue.add (Event_queue.create ()) ~time:1. ~prio:(-1) ());
        check_raises_invalid "huge" (fun () ->
            Event_queue.add (Event_queue.create ()) ~time:1. ~prio:(1 lsl 20)
              ()));
    t "expected capacity hint is behaviour-neutral" (fun () ->
        let a = Event_queue.create ~expected:4096 () in
        let b = Event_queue.create () in
        for i = 0 to 99 do
          let time = float_of_int ((i * 37) mod 19) in
          Event_queue.add a ~time ~prio:(i land 1) i;
          Event_queue.add b ~time ~prio:(i land 1) i
        done;
        check_true "same drain"
          (drain_both a (fun () -> Event_queue.pop b)));
  ]

let delay_trace_tests =
  [
    t "delay provenance off by default" (fun () ->
        let tr = Trace.create () in
        Trace.record_delay tr ~sent:1. ~src:0 ~dst:1 ~delay:0.01;
        check_int "empty" 0 (List.length (Trace.delays tr));
        check_bool "flag" false (Trace.delays_enabled tr));
    t "delay provenance records and clears" (fun () ->
        let tr = Trace.create ~capacity:2 () in
        Trace.set_delays_enabled tr true;
        Trace.record_delay tr ~sent:1. ~src:0 ~dst:1 ~delay:0.01;
        Trace.record_delay tr ~sent:2. ~src:1 ~dst:0 ~delay:0.02;
        Trace.record_delay tr ~sent:3. ~src:2 ~dst:0 ~delay:0.03;
        check_int "total" 3 (Trace.delays_total tr);
        (match Trace.delays tr with
        | [ a; b ] ->
          check_float "evicted oldest" 2. a.Trace.sent;
          check_float "kept newest" 3. b.Trace.sent;
          check_float "delay" 0.03 b.Trace.delay;
          check_int "src" 2 b.Trace.src
        | l -> Alcotest.failf "expected 2 retained, got %d" (List.length l));
        Trace.clear tr;
        check_int "cleared" 0 (Trace.delays_total tr));
    t "message buffer records provenance when wired" (fun () ->
        let module MB = Csync_net.Message_buffer in
        let tr = Trace.create () in
        Trace.set_delays_enabled tr true;
        let engine = Engine.create () in
        let buf =
          MB.create ~n:2 ~delay:(Csync_net.Delay.constant 0.005) ~trace:tr
            ~engine ()
        in
        MB.send buf ~src:0 ~dst:1 42.;
        MB.broadcast buf ~src:1 7.;
        match Trace.delays tr with
        | [ a; b; c ] ->
          check_int "first src" 0 a.Trace.src;
          check_float "modelled delay" 0.005 a.Trace.delay;
          check_int "bcast to 0" 0 b.Trace.dst;
          check_int "bcast to 1 (self)" 1 c.Trace.dst
        | l -> Alcotest.failf "expected 3 records, got %d" (List.length l));
  ]

let suite =
  rng_tests @ queue_tests @ tie_break_tests @ reference_tests
  @ engine_tests @ trace_tests @ delay_trace_tests
