(* Round-phase profiler for the scale pipeline.

   Phases are the fixed stages of a sharded round (plus the end-of-run
   state checksum); each gets a "profile.<phase>" span (count / total /
   max) and a "profile.<phase>.ns" series (one point per occurrence, so
   per-round phase times survive into the trace for [csync report]'s
   profile table and [csync top]'s bars).  The fill phase is timed
   inside the scale workers (each fills and reduces its own rows) and
   recorded once per round, at the slowest worker's time.

   Phases are timed on {!Registry.now_ns}, the monotonic clock, so a
   wall-clock step (NTP) during a round cannot produce a negative or
   inflated phase time. *)

type phase = Fill | Apply | Advance | Shard_merge | Checksum

let phases = [ Fill; Apply; Advance; Shard_merge; Checksum ]

let phase_name = function
  | Fill -> "fill"
  | Apply -> "apply"
  | Advance -> "advance"
  | Shard_merge -> "shard_merge"
  | Checksum -> "checksum"

let phase_index = function
  | Fill -> 0
  | Apply -> 1
  | Advance -> 2
  | Shard_merge -> 3
  | Checksum -> 4

type cells = {
  spans : Registry.Span.handle array;  (* by phase_index *)
  series : Registry.Series.handle array;
}

type t = Disabled | On of cells

let disabled = Disabled

let create reg =
  if not (Registry.enabled reg) then Disabled
  else
    On
      {
        spans =
          Array.of_list
            (List.map (fun p -> Registry.span reg ("profile." ^ phase_name p)) phases);
        series =
          Array.of_list
            (List.map
               (fun p -> Registry.series reg ("profile." ^ phase_name p ^ ".ns"))
               phases);
      }

let active = function Disabled -> false | On _ -> true

let record_ns t phase ns =
  match t with
  | Disabled -> ()
  | On c ->
    let i = phase_index phase in
    (* The series x coordinate is the occurrence index, read from the
       interned span's count so it keeps advancing across profiler
       instances (one is created per Scale round). *)
    let x = float_of_int (Registry.Span.count c.spans.(i)) in
    Registry.Span.record c.spans.(i) (float_of_int ns *. 1e-9);
    Registry.Series.push c.series.(i) x (float_of_int ns)

let time t phase f =
  match t with
  | Disabled -> f ()
  | On _ ->
    let t0 = Registry.now_ns () in
    let finish () = record_ns t phase (Registry.now_ns () - t0) in
    (match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e)
