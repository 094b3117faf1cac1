module Histogram = Csync_metrics.Histogram

(* All mutation other than counters goes through a {!Spinlock}. *)

type gauge_cell = {
  glock : Spinlock.t;
  mutable gv : float;
  mutable gset : bool;
}

type series_cell = {
  slock : Spinlock.t;
  mutable sx : float array;
  mutable sy : float array;
  mutable sn : int;
}

type hist_cell = { hlock : Spinlock.t; hh : Histogram.t }

(* Durations accumulate as integer nanoseconds: spans are timed on the
   monotonic ns clock, summing exact ns avoids float drift, and the trace
   encoder stores ns-exact span times as varints instead of raw f64. *)
type span_cell = {
  plock : Spinlock.t;
  mutable pcount : int;
  mutable ptotal_ns : int;
  mutable pmax_ns : int;
}

type event = { ev_name : string; ev_fields : (string * Json.t) list }

type t = {
  enabled : bool;
  rlock : Spinlock.t;
  counters : (string, int Atomic.t) Hashtbl.t;
  gauges : (string, gauge_cell) Hashtbl.t;
  series_tbl : (string, series_cell) Hashtbl.t;
  hists : (string, hist_cell) Hashtbl.t;
  spans : (string, span_cell) Hashtbl.t;
  mutable events : event list; (* newest first *)
  mutable events_n : int;
  mutable events_dropped : int;
}

(* The cell label is worker-local (Domain.DLS on OCaml 5): each pool worker
   sets the label of the cell it is executing and mints names under it, so
   per-cell metric names stay exact under any [--jobs], not last-writer-wins
   as a shared field would be. *)
let label_key = Tls.new_key (fun () -> "")

let event_cap = 65536

let make_registry enabled =
  {
    enabled;
    rlock = Spinlock.create ();
    counters = Hashtbl.create (if enabled then 64 else 1);
    gauges = Hashtbl.create (if enabled then 16 else 1);
    series_tbl = Hashtbl.create (if enabled then 32 else 1);
    hists = Hashtbl.create (if enabled then 32 else 1);
    spans = Hashtbl.create (if enabled then 8 else 1);
    events = [];
    events_n = 0;
    events_dropped = 0;
  }

let none = make_registry false

let create () = make_registry true

let enabled t = t.enabled

let set_label t label = if t.enabled then Tls.set label_key label

let label (_ : t) = Tls.get label_key

let full_name (_ : t) name =
  match Tls.get label_key with "" -> name | l -> l ^ "/" ^ name

(* Ambient registry: installed before a traced run, captured by
   components at creation time.  A plain ref is enough — install/clear
   happen on the orchestrating domain before and after the parallel
   region; workers only read it. *)
let installed_ref = ref none

let install t = installed_ref := t

let installed () = !installed_ref

let clear_installed () = installed_ref := none

external now_ns : unit -> int = "csync_mono_ns" [@@noalloc]

let intern tbl rlock name make =
  Spinlock.locked rlock (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some v -> v
      | None ->
        let v = make () in
        Hashtbl.replace tbl name v;
        v)

module Counter = struct
  type handle = Noop | C of int Atomic.t

  let noop = Noop

  let incr = function Noop -> () | C a -> ignore (Atomic.fetch_and_add a 1)

  let add h n = match h with Noop -> () | C a -> ignore (Atomic.fetch_and_add a n)

  let value = function Noop -> 0 | C a -> Atomic.get a
end

let counter t name =
  if not t.enabled then Counter.Noop
  else Counter.C (intern t.counters t.rlock (full_name t name) (fun () -> Atomic.make 0))

module Gauge = struct
  type handle = Noop | G of gauge_cell

  let noop = Noop

  let active = function Noop -> false | G _ -> true

  let set h v =
    match h with
    | Noop -> ()
    | G c ->
      Spinlock.locked c.glock (fun () ->
          c.gv <- v;
          c.gset <- true)

  let observe_max h v =
    match h with
    | Noop -> ()
    | G c ->
      Spinlock.locked c.glock (fun () ->
          if (not c.gset) || v > c.gv then begin
            c.gv <- v;
            c.gset <- true
          end)

  let value = function
    | Noop -> None
    | G c ->
      Spinlock.locked c.glock (fun () -> if c.gset then Some c.gv else None)
end

let gauge t name =
  if not t.enabled then Gauge.Noop
  else
    Gauge.G
      (intern t.gauges t.rlock (full_name t name) (fun () ->
           { glock = Spinlock.create (); gv = 0.; gset = false }))

module Series = struct
  type handle = Noop | S of series_cell

  let noop = Noop

  let active = function Noop -> false | S _ -> true

  let push h x y =
    match h with
    | Noop -> ()
    | S c ->
      Spinlock.locked c.slock (fun () ->
          let cap = Array.length c.sx in
          if c.sn = cap then begin
            let cap' = max 16 (2 * cap) in
            let grow a = Array.append a (Array.make (cap' - cap) 0.) in
            c.sx <- grow c.sx;
            c.sy <- grow c.sy
          end;
          c.sx.(c.sn) <- x;
          c.sy.(c.sn) <- y;
          c.sn <- c.sn + 1)

  let points = function
    | Noop -> []
    | S c ->
      Spinlock.locked c.slock (fun () ->
          List.init c.sn (fun i -> (c.sx.(i), c.sy.(i))))
end

let series t name =
  if not t.enabled then Series.Noop
  else
    Series.S
      (intern t.series_tbl t.rlock (full_name t name) (fun () ->
           { slock = Spinlock.create (); sx = [||]; sy = [||]; sn = 0 }))

module Hist = struct
  type handle = Noop | H of hist_cell

  let noop = Noop

  let active = function Noop -> false | H _ -> true

  let add h v =
    match h with
    | Noop -> ()
    | H c -> Spinlock.locked c.hlock (fun () -> Histogram.add c.hh v)

  let count = function
    | Noop -> 0
    | H c -> Spinlock.locked c.hlock (fun () -> Histogram.count c.hh)

  (* Shard-fold primitive: add a worker-local histogram's counters into
     the shared one (same shape required, see {!Histogram.merge}). *)
  let merge h src =
    match h with
    | Noop -> ()
    | H c -> Spinlock.locked c.hlock (fun () -> Histogram.merge c.hh src)
end

let hist t ~lo ~hi ~bins name =
  if not t.enabled then Hist.Noop
  else
    Hist.H
      (intern t.hists t.rlock (full_name t name) (fun () ->
           { hlock = Spinlock.create (); hh = Histogram.create ~lo ~hi ~bins }))

let hist_log t ~lo ~hi ~per_decade name =
  if not t.enabled then Hist.Noop
  else
    Hist.H
      (intern t.hists t.rlock (full_name t name) (fun () ->
           {
             hlock = Spinlock.create ();
             hh = Histogram.log ~lo ~hi ~per_decade;
           }))

module Span = struct
  type handle = Noop | P of span_cell

  let noop = Noop

  let active = function Noop -> false | P _ -> true

  let to_ns seconds = max 0 (int_of_float (Float.round (seconds *. 1e9)))

  let record_ns c ns =
    Spinlock.locked c.plock (fun () ->
        c.pcount <- c.pcount + 1;
        c.ptotal_ns <- c.ptotal_ns + ns;
        if ns > c.pmax_ns then c.pmax_ns <- ns)

  let record h seconds =
    match h with Noop -> () | P c -> record_ns c (to_ns seconds)

  let time h f =
    match h with
    | Noop -> f ()
    | P c ->
      let t0 = now_ns () in
      let finish () = record_ns c (now_ns () - t0) in
      (match f () with
      | v ->
        finish ();
        v
      | exception e ->
        finish ();
        raise e)

  let count = function Noop -> 0 | P c -> c.pcount

  (* Shard-fold primitive: fold a worker-local span accumulator in. *)
  let add h ~count ~total_s ~max_s =
    match h with
    | Noop -> ()
    | P c ->
      let total_ns = to_ns total_s and max_ns = to_ns max_s in
      Spinlock.locked c.plock (fun () ->
          c.pcount <- c.pcount + count;
          c.ptotal_ns <- c.ptotal_ns + total_ns;
          if max_ns > c.pmax_ns then c.pmax_ns <- max_ns)
end

let span t name =
  if not t.enabled then Span.Noop
  else
    Span.P
      (intern t.spans t.rlock (full_name t name) (fun () ->
           {
             plock = Spinlock.create ();
             pcount = 0;
             ptotal_ns = 0;
             pmax_ns = 0;
           }))

let event t name fields =
  if t.enabled then
    Spinlock.locked t.rlock (fun () ->
        if t.events_n >= event_cap then t.events_dropped <- t.events_dropped + 1
        else begin
          t.events <- { ev_name = full_name t name; ev_fields = fields } :: t.events;
          t.events_n <- t.events_n + 1
        end)

(* ---------- dumping ---------- *)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let records t =
  Spinlock.locked t.rlock (fun () ->
      let counters =
        sorted_bindings t.counters
        |> List.map (fun (name, a) -> Record.Counter (name, Atomic.get a))
      in
      let dropped =
        if t.events_dropped = 0 then []
        else [ Record.Counter ("obs.events_dropped", t.events_dropped) ]
      in
      let gauges =
        sorted_bindings t.gauges
        |> List.filter_map (fun (name, c) ->
               if c.gset then Some (Record.Gauge (name, c.gv)) else None)
      in
      let series =
        sorted_bindings t.series_tbl
        |> List.map (fun (name, c) ->
               Record.Series
                 (name, Array.sub c.sx 0 c.sn, Array.sub c.sy 0 c.sn))
      in
      let hists =
        sorted_bindings t.hists
        |> List.map (fun (name, c) ->
               let h = c.hh in
               let lo, hi = Histogram.range h in
               Record.Hist
                 ( name,
                   {
                     Record.lo;
                     hi;
                     per_decade = Histogram.per_decade h;
                     counts = Array.init (Histogram.bins h) (Histogram.bin_count h);
                     underflow = Histogram.underflow h;
                     overflow = Histogram.overflow h;
                     invalid = Histogram.invalid h;
                     total = Histogram.count h;
                   } ))
      in
      let spans =
        sorted_bindings t.spans
        |> List.map (fun (name, c) ->
               Record.Span
                 ( name,
                   {
                     Record.count = c.pcount;
                     total_s = float_of_int c.ptotal_ns /. 1e9;
                     max_s = float_of_int c.pmax_ns /. 1e9;
                   } ))
      in
      let events =
        List.rev_map (fun e -> Record.Event (e.ev_name, Json.Obj e.ev_fields)) t.events
      in
      counters @ dropped @ gauges @ series @ hists @ spans @ events)

let dump t = List.map Record.to_json (records t)
