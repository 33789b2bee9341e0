(* A fixed calibration kernel that measures how fast the host is right
   now.  The machines this benchmark runs on are shared: their speed
   drifts by half over minutes, far more than the changes the host
   metrics must resolve.  The kernel is a miniature of the simulator's
   own profile — fibers on effect handlers parked in a binary heap of
   timed events, small allocations and a large hash table — written
   against the standard library only, so no change to the repository's
   code changes how long it takes.  Timing it beside every measured
   phase gives the factor that scales host times to the reference
   host. *)

open Effect
open Effect.Deep

type _ Effect.t += Sleep : int -> unit Effect.t

(* The kernel's typical time, in seconds, on the host the bounds in
   BENCHMARK.json were set on (a shared 2-vCPU Xeon at 2.0 GHz). *)
let reference_s = 0.045

let kernel () =
  let cap = 128 in
  let times = Array.make cap 0 and seqs = Array.make cap 0 in
  let ks = Array.make cap ignore in
  let len = ref 0 and seq = ref 0 and now = ref 0 in
  let less i j =
    times.(i) < times.(j) || (times.(i) = times.(j) && seqs.(i) < seqs.(j))
  in
  let swap i j =
    let t = times.(i) and k = ks.(i) and s = seqs.(i) in
    times.(i) <- times.(j);
    ks.(i) <- ks.(j);
    seqs.(i) <- seqs.(j);
    times.(j) <- t;
    ks.(j) <- k;
    seqs.(j) <- s
  in
  let push t k =
    let i = ref !len in
    incr len;
    incr seq;
    times.(!i) <- t;
    ks.(!i) <- k;
    seqs.(!i) <- !seq;
    while !i > 0 && less !i ((!i - 1) / 2) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let t = times.(0) and k = ks.(0) in
    decr len;
    swap 0 !len;
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < !len && less l !m then m := l;
      if r < !len && less r !m then m := r;
      if !m = !i then sifting := false
      else begin
        swap !i !m;
        i := !m
      end
    done;
    now := t;
    k ()
  in
  let tbl = Hashtbl.create 1024 in
  let spawn f =
    push !now (fun () ->
        match_with f ()
          {
            retc = ignore;
            exnc = raise;
            effc =
              (fun (type a) (e : a Effect.t) ->
                match e with
                | Sleep d ->
                    Some
                      (fun (k : (a, _) continuation) ->
                        push (!now + d) (fun () -> continue k ()))
                | _ -> None);
          })
  in
  for p = 0 to 63 do
    spawn (fun () ->
        let x = ref ((p * 7919) + 1) in
        for i = 1 to 800 do
          x := ((!x * 1103515245) + 12345) land 0x3fffffff;
          Hashtbl.replace tbl (!x land 0x3ffff) (i, [ p; i ], Bytes.create 64);
          if i land 1 = 0 then Hashtbl.remove tbl ((!x lsr 5) land 0x3ffff);
          perform (Sleep (1 + (!x land 1023)))
        done)
  done;
  while !len > 0 do
    pop ()
  done;
  Hashtbl.length tbl

let time () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  Unix.gettimeofday () -. t0
