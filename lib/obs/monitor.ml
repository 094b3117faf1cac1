(* Online theorem monitors.  The structure mirrors Registry: an enabled
   flag checked on every handle mint, permanent no-op handles, and a CAS
   {!Spinlock} for the (rare) shared mutation, violation recording.
   Per-sample counters are atomics; provenance is worker-local. *)

type check =
  | Agreement
  | Validity
  | Adjustment
  | Halving
  | Stabilization
  | Reconvergence
  | Local_skew

let all_checks =
  [
    Agreement;
    Validity;
    Adjustment;
    Halving;
    Stabilization;
    Reconvergence;
    Local_skew;
  ]

let check_index = function
  | Agreement -> 0
  | Validity -> 1
  | Adjustment -> 2
  | Halving -> 3
  | Stabilization -> 4
  | Reconvergence -> 5
  | Local_skew -> 6

let check_name = function
  | Agreement -> "agreement"
  | Validity -> "validity"
  | Adjustment -> "adjustment"
  | Halving -> "halving"
  | Stabilization -> "stabilization"
  | Reconvergence -> "reconvergence"
  | Local_skew -> "local_skew"

type prov_entry = {
  id : int;
  src : int;
  dst : int;
  sent : float;
  delay : float;
  faults : string list;
}

type slot = { pid : int; prov : int; fresh : bool }

type violation = {
  monitor : check;
  label : string;
  round : int option;
  pid : int option;
  time : float;
  measured : float;
  bound : float;
  provenance : (prov_entry * bool) list;
}

(* [first] carries the run-order index of the experiment cell that
   recorded it (see [start_cell]). *)
type cell = {
  evals : int Atomic.t;
  viols : int Atomic.t;
  mutable first : (int * violation) option;
}

(* A stored provenance entry is only trusted when its own id matches the
   probe, so ring eviction degrades to [find = None] instead of
   misattribution. *)
let ring_cap = 65536 (* power of two *)

type t = {
  enabled : bool;
  tighten : float;
  on : bool array; (* indexed by check_index *)
  lock : Spinlock.t;
  cells : cell array;
  mutable first_overall : (int * violation) option;
}

(* Worker-local side channels.  [staged_key] accumulates the chaos fault
   kinds applied to the message currently passing through the injector
   (drained by the next mint on the same worker); [current_key] carries
   the provenance id of the delivery being dispatched to an automaton. *)
let staged_key = Tls.new_key (fun () -> ([] : string list))

let current_key = Tls.new_key (fun () -> -1)

let n_checks = List.length all_checks

let make_monitor ~enabled ~checks ~tighten =
  let on = Array.make n_checks false in
  if enabled then List.iter (fun c -> on.(check_index c) <- true) checks;
  {
    enabled;
    tighten;
    on;
    lock = Spinlock.create ();
    cells =
      Array.init n_checks (fun _ ->
          { evals = Atomic.make 0; viols = Atomic.make 0; first = None });
    first_overall = None;
  }

let none = make_monitor ~enabled:false ~checks:[] ~tighten:1.0

(* Per-worker provenance state and the run-order index of the cell the
   worker is running.  A cell runs wholly on one worker and every lookup
   comes from the cell that minted the id, so counting ids from 0 in each
   cell makes them - and what they resolve to - the same at any worker
   count.  The state belongs to one monitor at a time ([owner]); a
   different monitor starts it afresh. *)
type local = {
  mutable owner : t;
  mutable next : int;
  mutable ring : prov_entry option array;
  mutable cell_index : int;
}

let local_key =
  Tls.new_key (fun () ->
      { owner = none; next = 0; ring = [||]; cell_index = 0 })

let reset l =
  Array.fill l.ring 0 (min l.next (Array.length l.ring)) None;
  l.next <- 0;
  l.cell_index <- 0

let local t =
  let l = Tls.get local_key in
  if l.owner != t then begin
    reset l;
    l.owner <- t
  end;
  l

let start_cell t index =
  if t.enabled then begin
    let l = local t in
    reset l;
    l.cell_index <- index
  end

let create ?(checks = all_checks) ?(tighten = 1.0) () =
  make_monitor ~enabled:true ~checks ~tighten

let enabled t = t.enabled

let installed_ref = ref none

let install t = installed_ref := t

let installed () = !installed_ref

let clear_installed () = installed_ref := none

let current_label () = Registry.label (Registry.installed ())

let bump t c = ignore (Atomic.fetch_and_add t.cells.(check_index c).evals 1)

(* The first violation of the lowest-indexed cell wins, which is the
   first one recorded when cells run in index order on one worker. *)
let record t (v : violation) =
  let cell = t.cells.(check_index v.monitor) in
  ignore (Atomic.fetch_and_add cell.viols 1);
  let k = (local t).cell_index in
  let earlier = function None -> true | Some (k', _) -> k < k' in
  Spinlock.locked t.lock (fun () ->
      if earlier cell.first then cell.first <- Some (k, v);
      if earlier t.first_overall then t.first_overall <- Some (k, v))

module Prov = struct
  type id = int

  let null = -1

  let mint t ~src ~dst ~sent ~delay =
    if not t.enabled then null
    else begin
      let faults = List.rev (Tls.get staged_key) in
      let l = local t in
      if Array.length l.ring = 0 then l.ring <- Array.make ring_cap None;
      let id = l.next in
      l.next <- id + 1;
      l.ring.(id land (ring_cap - 1)) <-
        Some { id; src; dst; sent; delay; faults };
      id
    end

  let stage_fault t kind =
    if t.enabled then Tls.set staged_key (kind :: Tls.get staged_key)

  let clear_staged t =
    if t.enabled then
      match Tls.get staged_key with [] -> () | _ -> Tls.set staged_key []

  let set_current t id = if t.enabled then Tls.set current_key id

  let current t = if t.enabled then Tls.get current_key else null

  type entry = prov_entry = {
    id : id;
    src : int;
    dst : int;
    sent : float;
    delay : float;
    faults : string list;
  }

  let find t id =
    if (not t.enabled) || id < 0 then None
    else
      let l = local t in
      if id >= l.next then None
      else
        match l.ring.(id land (ring_cap - 1)) with
        | Some e when e.id = id -> Some e
        | _ -> None
end

(* Bound comparisons tolerate float noise the same way the offline
   checkers do: a violation must exceed the bound by more than [tol]
   relative to the bound's scale. *)
let tol = 1e-9

let exceeds measured bound = measured > bound +. (tol *. (1. +. Float.abs bound))

module Agreement = struct
  type handle = Noop | H of { t : t; gamma : float; from_time : float }

  let handle t ~gamma ~from_time =
    if t.enabled && t.on.(check_index Agreement) then
      H { t; gamma = gamma *. t.tighten; from_time }
    else Noop

  let check h ~time ~skew =
    match h with
    | Noop -> ()
    | H { t; gamma; from_time } ->
      if time >= from_time then begin
        bump t Agreement;
        if exceeds skew gamma then
          record t
            {
              monitor = Agreement;
              label = current_label ();
              round = None;
              pid = None;
              time;
              measured = skew;
              bound = gamma;
              provenance = [];
            }
      end
end

module Validity = struct
  type handle =
    | Noop
    | H of {
        t : t;
        alpha1 : float;
        alpha2 : float;
        alpha3 : float;
        t0 : float;
        tmin0 : float;
        tmax0 : float;
      }

  let handle t ~alpha1 ~alpha2 ~alpha3 ~t0 ~tmin0 ~tmax0 =
    if t.enabled && t.on.(check_index Validity) then
      H { t; alpha1; alpha2; alpha3 = alpha3 *. t.tighten; t0; tmin0; tmax0 }
    else Noop

  let check h ~time ~min_local ~max_local =
    match h with
    | Noop -> ()
    | H c ->
      bump c.t Validity;
      let lower = (c.alpha1 *. (time -. c.tmax0)) -. c.alpha3 in
      let upper = (c.alpha2 *. (time -. c.tmin0)) +. c.alpha3 in
      let violation measured bound =
        record c.t
          {
            monitor = Validity;
            label = current_label ();
            round = None;
            pid = None;
            time;
            measured;
            bound;
            provenance = [];
          }
      in
      if exceeds lower (min_local -. c.t0) then violation (min_local -. c.t0) lower
      else if exceeds (max_local -. c.t0) upper then
        violation (max_local -. c.t0) upper
end

module Adjustment = struct
  type handle = Noop | H of { t : t; bound : float; pid : int }

  let handle t ~bound ~pid =
    if t.enabled && t.on.(check_index Adjustment) then
      H { t; bound = bound *. t.tighten; pid }
    else Noop

  let active = function Noop -> false | H _ -> true

  let check h ~round ~time ~adj ~slots =
    match h with
    | Noop -> ()
    | H { t; bound; pid } ->
      bump t Adjustment;
      if exceeds (Float.abs adj) bound then begin
        let resolve fresh =
          Array.to_list slots
          |> List.filter_map (fun (s : slot) ->
                 if s.fresh = fresh then
                   match Prov.find t s.prov with
                   | Some e -> Some (e, s.fresh)
                   | None -> None
                 else None)
        in
        record t
          {
            monitor = Adjustment;
            label = current_label ();
            round = Some round;
            pid = Some pid;
            time;
            measured = Float.abs adj;
            bound;
            provenance = resolve true @ resolve false;
          }
      end
end

module Halving = struct
  type handle =
    | Noop
    | H of {
        t : t;
        recurrence : float -> float;
        mutable last : (int * float) option;
      }

  let handle t ~recurrence =
    if t.enabled && t.on.(check_index Halving) then
      H { t; recurrence; last = None }
    else Noop

  let observe h ~round ~spread =
    match h with
    | Noop -> ()
    | H c ->
      (match c.last with
      | Some (r, b) when round = r + 1 ->
        bump c.t Halving;
        let bound = c.recurrence b *. c.t.tighten in
        if exceeds spread bound then
          record c.t
            {
              monitor = Halving;
              label = current_label ();
              round = Some round;
              pid = None;
              time = float_of_int round;
              measured = spread;
              bound;
              provenance = [];
            }
      | _ -> ());
      c.last <- Some (round, spread)
end

(* Eventual properties ("within R rounds of the last corruption, ...").
   Unlike the invariant monitors above, these carry per-pid obligations: a
   corruption opens one, a later corruption of the same pid replaces it
   (the property is anchored on the *last* corruption), and the obligation
   resolves either as a violation - the predicate still fails after the
   deadline - or as a pass at [finish], when the run has covered the
   deadline without one.  Obligations whose deadline the run never reaches
   are inconclusive and dropped, not counted.  Each opened obligation
   mints a provenance entry naming the corrupting fault, so a first
   violation names its cause like any message-borne fault would. *)
module Eventual = struct
  type pending = {
    pid : int;
    corrupted_at : float;
    deadline : float;
    provenance : (prov_entry * bool) list;
    mutable breached : bool;
  }

  type body = { t : t; check : check; mutable pending : pending list }

  let corrupted c ~pid ~time ~deadline =
    Prov.stage_fault c.t "state-corrupt";
    let id = Prov.mint c.t ~src:pid ~dst:pid ~sent:time ~delay:0. in
    Prov.clear_staged c.t;
    let provenance =
      match Prov.find c.t id with None -> [] | Some e -> [ (e, true) ]
    in
    c.pending <-
      { pid; corrupted_at = time; deadline; provenance; breached = false }
      :: List.filter (fun p -> p.pid <> pid) c.pending

  (* [bad] is the property's failure predicate at this observation.  After
     the deadline, a failing observation is a violation (recorded once per
     obligation, on its first breach). *)
  let observe c ~pid ~time ~bad ~measured ~bound =
    List.iter
      (fun p ->
        if p.pid = pid && (not p.breached) && time > p.deadline && bad then begin
          p.breached <- true;
          bump c.t c.check;
          record c.t
            {
              monitor = c.check;
              label = current_label ();
              round = None;
              pid = Some pid;
              time;
              measured;
              bound;
              provenance = p.provenance;
            }
        end)
      c.pending

  let finish c ~time =
    List.iter
      (fun p -> if (not p.breached) && p.deadline <= time then bump c.t c.check)
      c.pending;
    c.pending <- []
end

module Stabilization = struct
  type handle = Noop | H of { body : Eventual.body; limit : float }

  (* The property: a corrupted process re-enters gamma within [rounds]
     rounds (of real length [big_p]) of its last corruption.  [tighten]
     shrinks the allowance. *)
  let handle t ~rounds ~big_p =
    if t.enabled && t.on.(check_index Stabilization) then
      H
        {
          body = { Eventual.t; check = Stabilization; pending = [] };
          limit = float_of_int rounds *. big_p *. t.tighten;
        }
    else Noop

  let active = function Noop -> false | H _ -> true

  let corrupted h ~pid ~time =
    match h with
    | Noop -> ()
    | H { body; limit } ->
      Eventual.corrupted body ~pid ~time ~deadline:(time +. limit)

  let observe h ~pid ~time ~within_gamma =
    match h with
    | Noop -> ()
    | H { body; limit } ->
      Eventual.observe body ~pid ~time ~bad:(not within_gamma)
        ~measured:
          (match
             List.find_opt (fun p -> p.Eventual.pid = pid) body.Eventual.pending
           with
          | Some p -> time -. p.Eventual.corrupted_at
          | None -> time)
        ~bound:limit

  let finish h ~time =
    match h with Noop -> () | H { body; _ } -> Eventual.finish body ~time
end

module Reconvergence = struct
  type handle = Noop | H of { body : Eventual.body; limit : float; bound : float }

  (* The property: within [rounds] rounds of its last corruption, a
     corrupted process' correction is back within [bound] of the clean
     processes' (the gap the caller measures).  [tighten] shrinks the
     gap bound. *)
  let handle t ~rounds ~big_p ~bound =
    if t.enabled && t.on.(check_index Reconvergence) then
      H
        {
          body = { Eventual.t; check = Reconvergence; pending = [] };
          limit = float_of_int rounds *. big_p;
          bound = bound *. t.tighten;
        }
    else Noop

  let active = function Noop -> false | H _ -> true

  let corrupted h ~pid ~time =
    match h with
    | Noop -> ()
    | H { body; limit; _ } ->
      Eventual.corrupted body ~pid ~time ~deadline:(time +. limit)

  let observe h ~pid ~time ~gap =
    match h with
    | Noop -> ()
    | H { body; bound; _ } ->
      Eventual.observe body ~pid ~time ~bad:(exceeds gap bound) ~measured:gap
        ~bound

  let finish h ~time =
    match h with Noop -> () | H { body; _ } -> Eventual.finish body ~time
end

module Local_skew = struct
  type handle = Noop | H of { t : t; kappa : float }

  (* The gradient property, per observation: the skew between two
     processes at graph distance [dist] stays within [kappa * dist]
     (distance 1 - an edge - is the local-skew bound proper).  [kappa]
     comes from the gradient rule's fixed point; [tighten] shrinks it. *)
  let handle t ~kappa =
    if t.enabled && t.on.(check_index Local_skew) then
      H { t; kappa = kappa *. t.tighten }
    else Noop

  let active = function Noop -> false | H _ -> true

  let check h ~round ~time ~dist ~skew =
    match h with
    | Noop -> ()
    | H { t; kappa } ->
      if dist > 0 then begin
        bump t Local_skew;
        let bound = kappa *. float_of_int dist in
        if exceeds skew bound then
          record t
            {
              monitor = Local_skew;
              label = current_label ();
              round = Some round;
              pid = None;
              time;
              measured = skew;
              bound;
              provenance = [];
            }
      end
end

(* ---------- results ---------- *)

let checks_performed t =
  Array.fold_left (fun acc c -> acc + Atomic.get c.evals) 0 t.cells

let violations_total t =
  Array.fold_left (fun acc c -> acc + Atomic.get c.viols) 0 t.cells

let first_violation t =
  Spinlock.locked t.lock (fun () -> Option.map snd t.first_overall)

let results t =
  List.map
    (fun c ->
      let cell = t.cells.(check_index c) in
      let first =
        Spinlock.locked t.lock (fun () -> Option.map snd cell.first)
      in
      (c, Atomic.get cell.evals, Atomic.get cell.viols, first))
    all_checks

let opt_int = function None -> Json.Null | Some i -> Json.num_of_int i

let entry_json ((e : prov_entry), fresh) =
  Json.Obj
    [
      ("id", Json.num_of_int e.id);
      ("src", Json.num_of_int e.src);
      ("dst", Json.num_of_int e.dst);
      ("sent", Json.Num e.sent);
      ("delay", Json.Num e.delay);
      ("fresh", Json.Bool fresh);
      ("faults", Json.Arr (List.map (fun f -> Json.Str f) e.faults));
    ]

let violation_json (v : violation) =
  Json.Obj
    [
      ("label", Json.Str v.label);
      ("round", opt_int v.round);
      ("pid", opt_int v.pid);
      ("time", Json.Num v.time);
      ("measured", Json.Num v.measured);
      ("bound", Json.Num v.bound);
      ("provenance", Json.Arr (List.map entry_json v.provenance));
    ]

let records t =
  results t
  |> List.filter (fun (c, _, _, _) -> t.on.(check_index c))
  |> List.map (fun (c, evals, viols, first) ->
         Record.Monitor
           ( check_name c,
             {
               Record.checks = evals;
               violations = viols;
               first = Option.map violation_json first;
             } ))

let dump t = List.map Record.to_json (records t)

let pp_violation ppf (v : violation) =
  Format.fprintf ppf "first at t=%.6f%s%s: measured %.6g > bound %.6g%s"
    v.time
    (match v.round with None -> "" | Some r -> Printf.sprintf " round %d" r)
    (match v.pid with None -> "" | Some p -> Printf.sprintf " pid %d" p)
    v.measured v.bound
    (if v.label = "" then "" else Printf.sprintf " [%s]" v.label)

let pp_summary ppf t =
  if not t.enabled then Format.fprintf ppf "monitors: disabled@."
  else begin
    List.iter
      (fun (c, evals, viols, first) ->
        if t.on.(check_index c) then begin
          Format.fprintf ppf "%-10s : %d checks, %d violation%s@."
            (check_name c) evals viols
            (if viols = 1 then "" else "s");
          match first with
          | None -> ()
          | Some v ->
            Format.fprintf ppf "             %a@." pp_violation v;
            List.iter
              (fun ((e : prov_entry), fresh) ->
                Format.fprintf ppf
                  "             msg #%d %d->%d sent=%.6f delay=%.6f%s%s@." e.id
                  e.src e.dst e.sent e.delay
                  (if fresh then "" else " (stale)")
                  (match e.faults with
                  | [] -> ""
                  | fs -> " faults=" ^ String.concat "," fs))
              v.provenance
        end)
      (results t);
    Format.fprintf ppf "total      : %d checks, %d violations@."
      (checks_performed t) (violations_total t)
  end
