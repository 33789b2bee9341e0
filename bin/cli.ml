(* Command-line terms shared by the benchmark tools, so every tool
   accepts the same spellings and rejects bad values the same way: as a
   usage error naming the option. *)

open Cmdliner

(* A case-insensitive choice among [names]. *)
let choice what names =
  let parse s =
    match List.assoc_opt (String.lowercase_ascii s) names with
    | Some v -> Ok v
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown %s %S (want %s)" what s
                (String.concat "|" (List.map fst names))))
  in
  let print ppf v =
    Format.pp_print_string ppf (fst (List.find (fun (_, x) -> x == v) names))
  in
  Arg.conv (parse, print)

(* A count: an integer >= 1. *)
let positive =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < 1 -> Error (`Msg (Printf.sprintf "must be >= 1, got %d" n))
    | r -> r
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let config =
  let open Clusterfs.Config in
  Arg.(
    value
    & opt
        (choice "config"
           [
             ("a", config_a); ("b", config_b); ("c", config_c); ("d", config_d);
           ])
        config_a
    & info [ "config"; "c" ] ~doc:"Paper config: a, b, c or d.")

let phases ~default =
  let open Workload.Iobench in
  Arg.(
    value
    & opt
        (list
           (choice "phase"
              [
                ("fsw", FSW); ("fsu", FSU); ("fsr", FSR); ("frr", FRR);
                ("fru", FRU);
              ]))
        default
    & info [ "phases" ] ~doc:"Comma-separated subset of fsw,fsu,fsr,frr,fru.")

let clients ~default =
  Arg.(value & opt positive default & info [ "clients" ] ~doc:"Client nodes.")

let servers =
  Arg.(
    value & opt positive 1
    & info [ "servers" ]
        ~doc:
          "Server machines; files are spread across them by a hash of the \
           path (fio private-file jobs round-robin over them).")

let topology =
  let open Clusterfs.Topology in
  Arg.(
    value
    & opt
        (choice "topology"
           [
             ("p2p", Point_to_point);
             ("shared", Shared_medium);
             ("switched", Switched);
           ])
        Point_to_point
    & info [ "topology" ]
        ~doc:
          "Network wiring: p2p (a private link per client), shared (one \
           Ethernet-class medium all stations contend for) or switched (a \
           store-and-forward switch with a full-duplex port per machine).")

let ports_buffer =
  Arg.(
    value
    & opt (some positive) None
    & info [ "ports-buffer" ]
        ~doc:
          "Switch output-port buffer in frames (default 64; switched \
           topology); overflowing frames are tail-dropped.")
