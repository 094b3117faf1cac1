module Histogram = Csync_metrics.Histogram

(* Per-worker telemetry shard.

   An enabled {!Registry} is shared across pool workers behind atomics
   and spinlocks — fine for per-cell counters bumped a handful of times,
   hostile to per-event instrumentation at n = 10^5, where every worker
   would hammer the same cache lines.  A shard is a worker-local scope:
   plain (unsynchronized) cells that exactly one worker touches during
   the parallel region, folded into the registry afterward by the
   orchestrator.

   Merging is the caller's job and MUST happen on the orchestrating
   thread (after the join, under the cell's label), shard 0, 1, ... in
   turn.  Counters, histograms and spans commute, so the folded trace is
   byte-identical at any [--jobs].  Each instrument cell merges with one
   registry operation (counter add, histogram bin-fold, span fold), so
   merge cost is per-cell, not per-observation. *)

type counter_cell = { mutable cv : int }

type hist_cell = { hh : Histogram.t; per_decade : int }

type span_cell = {
  mutable pcount : int;
  mutable ptotal_ns : int;  (* integer ns, like Registry span cells *)
  mutable pmax_ns : int;
}

type cell =
  | Ccell of counter_cell
  | Hcell of hist_cell
  | Pcell of span_cell

type shard = {
  reg : Registry.t;
  cells : (string, cell) Hashtbl.t;
  mutable order : string list;  (* creation order, newest first *)
}

type t = Disabled | On of shard

let disabled = Disabled

let create reg =
  if not (Registry.enabled reg) then Disabled
  else On { reg; cells = Hashtbl.create 16; order = [] }

let active = function Disabled -> false | On _ -> true

(* Cells intern by base name within the shard; the registry-level label
   prefix is applied at merge time, not here. *)
let intern s name make =
  match Hashtbl.find_opt s.cells name with
  | Some c -> c
  | None ->
    let c = make () in
    Hashtbl.replace s.cells name c;
    s.order <- name :: s.order;
    c

module Counter = struct
  type handle = Noop | C of counter_cell

  let noop = Noop

  let incr = function Noop -> () | C c -> c.cv <- c.cv + 1

  let add h n = match h with Noop -> () | C c -> c.cv <- c.cv + n

  let value = function Noop -> 0 | C c -> c.cv
end

let counter t name =
  match t with
  | Disabled -> Counter.Noop
  | On s -> (
    match intern s name (fun () -> Ccell { cv = 0 }) with
    | Ccell c -> Counter.C c
    | _ -> invalid_arg ("Shard.counter: name already bound: " ^ name))

module Hist = struct
  type handle = Noop | H of hist_cell

  let noop = Noop

  let active = function Noop -> false | H _ -> true

  let add h v = match h with Noop -> () | H c -> Histogram.add c.hh v

  let count = function Noop -> 0 | H c -> Histogram.count c.hh
end

let hist_log t ~lo ~hi ~per_decade name =
  match t with
  | Disabled -> Hist.Noop
  | On s -> (
    match
      intern s name (fun () ->
          Hcell { hh = Histogram.log ~lo ~hi ~per_decade; per_decade })
    with
    | Hcell c -> Hist.H c
    | _ -> invalid_arg ("Shard.hist_log: name already bound: " ^ name))

module Span = struct
  type handle = Noop | P of span_cell

  let noop = Noop

  let active = function Noop -> false | P _ -> true

  let record_ns c ns =
    c.pcount <- c.pcount + 1;
    c.ptotal_ns <- c.ptotal_ns + ns;
    if ns > c.pmax_ns then c.pmax_ns <- ns

  let record h seconds =
    match h with Noop -> () | P c -> record_ns c (Registry.Span.to_ns seconds)

  let time h f =
    match h with
    | Noop -> f ()
    | P c ->
      let t0 = Registry.now_ns () in
      let finish () = record_ns c (Registry.now_ns () - t0) in
      (match f () with
      | v ->
        finish ();
        v
      | exception e ->
        finish ();
        raise e)
end

let span t name =
  match t with
  | Disabled -> Span.Noop
  | On s -> (
    match intern s name (fun () -> Pcell { pcount = 0; ptotal_ns = 0; pmax_ns = 0 }) with
    | Pcell c -> Span.P c
    | _ -> invalid_arg ("Shard.span: name already bound: " ^ name))

let merge = function
  | Disabled -> ()
  | On s ->
    (* Creation order: a deterministic walk of the cell table. *)
    List.iter
      (fun name ->
        match Hashtbl.find s.cells name with
        | Ccell c ->
          if c.cv <> 0 then Registry.Counter.add (Registry.counter s.reg name) c.cv
        | Hcell c ->
          if Histogram.count c.hh > 0 then begin
            let lo, hi = Histogram.range c.hh in
            Registry.Hist.merge
              (Registry.hist_log s.reg ~lo ~hi ~per_decade:c.per_decade name)
              c.hh
          end
        | Pcell c ->
          if c.pcount > 0 then
            Registry.Span.add (Registry.span s.reg name) ~count:c.pcount
              ~total_s:(float_of_int c.ptotal_ns /. 1e9)
              ~max_s:(float_of_int c.pmax_ns /. 1e9))
      (List.rev s.order)
