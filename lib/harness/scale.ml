(* Sharded driver for the struct-of-arrays cluster model.

   A round at n = 10^6 is n(degree+1) events.  Because Soa's topology and
   delays are pure functions of (seed, src, dst, round), destination ranges
   are independent, and so are the rows inside one: a row's correction
   reads nothing but that row.  Each worker therefore fills one
   destination's estimates into a width-float scratch row that stays in
   L1 and reduces it on the spot - the round never materialises a slab of
   all its estimates.  Corrections are a positional stitch of
   per-destination values that do not depend on shard boundaries, so
   Pool's index-ordered results make the state trajectory byte-identical
   at any worker count.

   Nothing orders events in time: a row's correction is a function of its
   estimate multiset.  The canonical (time, prio, stable id) event order
   survives only in the test oracle [reference_run], which materialises
   and sorts a round's events and folds the merge checksum over them. *)

module Soa = Csync_process.Soa
module Sweep = Csync_core.Sweep
module Obs = Csync_obs.Registry
module Shard = Csync_obs.Shard
module Profile = Csync_obs.Profile

(* Same 62-bit mixer family as Soa's hash: allocation-free, deterministic
   across 64-bit platforms. *)
let[@inline] mix x =
  let x = x lxor (x lsr 31) in
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 29) in
  let x = x * 0x1F123BB5159A55E5 in
  x lxor (x lsr 32)

let[@inline] mix_int h k = mix (h lxor k)

let[@inline] mix_float h x = mix_int h (Int64.to_int (Int64.bits_of_float x))

let shard_bounds ~n ~shards s = (s * n / shards, (s + 1) * n / shards)

let resolve_jobs jobs =
  match jobs with Some j when j > 0 -> j | _ -> Pool.default_jobs ()

(* Per-shard telemetry, recorded by the worker into its own shard scope
   (zero contention), then folded into the registry in shard-index order.
   Everything recorded is a pure observation of [t]; the run itself is
   untouched, so results stay byte-identical with telemetry on or off. *)
let observe_shard t sh ~lo ~hi ~count =
  if Shard.active sh then begin
    Shard.Counter.add (Shard.counter sh "scale.events") count;
    (* Delays live in [delta - eps, delta + eps] (~1e-2 at the paper's
       params); local skews span many decades as they contract round
       over round — both are log-histogram shaped. *)
    let delays =
      Shard.hist_log sh ~lo:1e-3 ~hi:1e-1 ~per_decade:32 "scale.link_delay"
    in
    let skews =
      Shard.hist_log sh ~lo:1e-9 ~hi:1.0 ~per_decade:8 "scale.local_skew"
    in
    for dst = lo to hi - 1 do
      for j = 0 to Soa.in_degree t dst - 1 do
        let src = Soa.in_neighbor t ~dst j in
        if src <> dst then
          Shard.Hist.add delays (Soa.link_delay t ~src ~dst)
      done;
      Shard.Hist.add skews (Soa.local_skew_at t dst)
    done
  end

(* One shard of the round: fill each destination's row into [row] and
   reduce it straight away.  Returns the shard's event count. *)
let fill_and_reduce t ~lo ~hi ~row ~mids =
  let hround = Soa.round_hash t and f = Soa.f t in
  let count = ref 0 in
  for dst = lo to hi - 1 do
    let c = Soa.fill_row t ~hround ~dst row ~off:0 in
    Sweep.reduce_row row ~off:0 ~count:c ~f ~out:mids ~at:(dst - lo);
    count := !count + c
  done;
  !count

(* Order-free digest of a shard's row midpoints: a sum of one hash per
   row, keyed by the destination, so shards combine by addition and the
   total cannot depend on where the shard cuts fell. *)
let mids_digest ~lo mids =
  let h = ref 0 in
  for i = 0 to Array.length mids - 1 do
    h := !h + mix_float (mix (lo + i)) (Array.unsafe_get mids i)
  done;
  !h

let round ?jobs t =
  let n = Soa.n t in
  let jobs = resolve_jobs jobs in
  let shards = max 1 (min jobs n) in
  let obs = Obs.installed () in
  let prof = Profile.create obs in
  let tele = Array.init shards (fun _ -> Shard.create obs) in
  let results =
    Pool.init ~jobs shards (fun s ->
        let lo, hi = shard_bounds ~n ~shards s in
        let t0 = if Profile.active prof then Obs.now_ns () else 0 in
        let row = Array.make (Soa.width t) 0. in
        let mids = Array.create_float (hi - lo) in
        let count = fill_and_reduce t ~lo ~hi ~row ~mids in
        let ns = if Profile.active prof then Obs.now_ns () - t0 else 0 in
        observe_shard t tele.(s) ~lo ~hi ~count;
        (lo, count, mids, mids_digest ~lo mids, ns))
  in
  let events = Array.fold_left (fun acc (_, c, _, _, _) -> acc + c) 0 results in
  let digest =
    mix (Array.fold_left (fun acc (_, _, _, d, _) -> acc + d) 0 results)
  in
  (* The fill phase ends when the slowest worker does. *)
  if Profile.active prof then
    Profile.record_ns prof Profile.Fill
      (Array.fold_left (fun acc (_, _, _, _, ns) -> max acc ns) 0 results);
  Profile.time prof Profile.Apply (fun () ->
      Array.iter (fun (lo, _, mids, _, _) -> Soa.apply t ~lo mids) results);
  Profile.time prof Profile.Advance (fun () -> Soa.advance t);
  (* Index-ordered fold keeps the merged telemetry — and with it the
     trace bytes — independent of which worker finished first. *)
  Profile.time prof Profile.Shard_merge (fun () -> Array.iter Shard.merge tele);
  (* Per-round convergence series (an O(n)/O(edges) observation pass,
     only when telemetry is on).  Pushed here rather than in [run] so
     every round-driving caller — the experiments loop rounds themselves
     — feeds the same series; x is the round counter [advance] just
     incremented past. *)
  let sp_s = Obs.series obs "scale.spread" in
  if Obs.Series.active sp_s then begin
    let r = float_of_int (Soa.round t - 1) in
    Obs.Series.push (Obs.series obs "scale.events_per_round") r
      (float_of_int events);
    Obs.Series.push sp_s r (Soa.spread t);
    Obs.Series.push (Obs.series obs "scale.local_skew_max") r (Soa.local_skew t)
  end;
  (events, digest)

(* One round's events in canonical order - (time, packed (prio, id))
   ascending, ids being globally unique - folded from 0x5EED. *)
let merge_checksum t =
  let times, keys = Soa.events t in
  let order = Array.init (Array.length times) Fun.id in
  Array.sort
    (fun a b ->
      let c = Float.compare times.(a) times.(b) in
      if c <> 0 then c else Int.compare keys.(a) keys.(b))
    order;
  ( Array.length order,
    Array.fold_left
      (fun h i -> mix_int (mix_float h times.(i)) keys.(i))
      0x5EED order )

let reference_run ?jobs ~rounds t =
  let events = ref 0 and checksum = ref 0 in
  for _ = 1 to rounds do
    let ev, ck = merge_checksum t in
    events := !events + ev;
    checksum := mix_int !checksum ck;
    ignore (round ?jobs t)
  done;
  (!events, !checksum)

type stats = {
  n : int;
  jobs : int;
  shards : int;
  rounds : int;
  events : int;
  checksum : int;
  state : int;
  spread0 : float;
  spread1 : float;
  local0 : float;
  local1 : float;
}

let state_checksum t =
  let h = ref (mix_int (Soa.round t) (Soa.n t)) in
  for p = 0 to Soa.n t - 1 do
    h := mix_float !h (Soa.corr t p)
  done;
  !h

let run ?jobs ?(rounds = 1) t =
  if rounds < 0 then invalid_arg "Scale.run: negative rounds";
  let jobs = resolve_jobs jobs in
  let shards = max 1 (min jobs (Soa.n t)) in
  let obs = Obs.installed () in
  let prof = Profile.create obs in
  let spread0 = Soa.spread t in
  let local0 = Soa.local_skew t in
  let events = ref 0 in
  let checksum = ref 0 in
  for _ = 1 to rounds do
    let ev, ck = round ~jobs t in
    events := !events + ev;
    checksum := mix_int !checksum ck
  done;
  let state = Profile.time prof Profile.Checksum (fun () -> state_checksum t) in
  {
    n = Soa.n t;
    jobs;
    shards;
    rounds;
    events = !events;
    checksum = !checksum;
    state;
    spread0;
    spread1 = Soa.spread t;
    local0;
    local1 = Soa.local_skew t;
  }
