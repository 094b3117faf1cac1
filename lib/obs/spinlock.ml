type t = bool Atomic.t

let create () : t = Atomic.make false

let locked l f =
  while not (Atomic.compare_and_set l false true) do
    ()
  done;
  match f () with
  | v ->
    Atomic.set l false;
    v
  | exception e ->
    Atomic.set l false;
    raise e
