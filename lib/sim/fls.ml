(* Loaded and saved by [Engine.spawn] like [Attrib.cell]: outside any
   process it reads [None], so code paths shared with setup code (mkfs,
   mount) need no special casing. *)
let cell : int option ref = ref None

(* True exactly while a process runs.  Slot writes made outside one are
   dropped, here and in [Attrib] and [Span], so such code always reads
   [None]. *)
let in_process = ref false

let get () = !cell
let set v = if !in_process then cell := v

let with_value v f =
  let prev = get () in
  set (Some v);
  Fun.protect ~finally:(fun () -> set prev) f
