type clock = { mutable entries : (string * Time.t) list }
(* a handful of phases per operation: an assoc list beats a table *)

let create () = { entries = [] }

let charge c phase d =
  if d > 0 then
    let rec bump = function
      | [] -> [ (phase, d) ]
      | (p, t) :: rest when p = phase -> (p, t + d) :: rest
      | kv :: rest -> kv :: bump rest
    in
    c.entries <- bump c.entries

let read c = List.sort (fun (a, _) (b, _) -> compare a b) c.entries
let find c phase = match List.assoc_opt phase c.entries with Some t -> t | None -> 0
let total c = List.fold_left (fun acc (_, t) -> acc + t) 0 c.entries
let merge_into ~dst src = List.iter (fun (p, t) -> charge dst p t) src.entries

(* The running process's clock: [Engine.spawn] loads it from the
   process's own slots on entry and saves and clears it on suspend, so
   outside any process it reads [None] and attribution is off. *)
let cell : clock option ref = ref None

let current () = !cell
let set c = if !Fls.in_process then cell := c

let charge_current phase d =
  if d > 0 then match current () with Some c -> charge c phase d | None -> ()

let with_clock c f =
  let prev = !cell in
  set (Some c);
  Fun.protect ~finally:(fun () -> set prev) f
