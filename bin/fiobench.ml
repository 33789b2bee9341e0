(* fiobench — run declarative fio-style workload specs against the
   simulated file system, locally or over NFS, with a per-layer cost
   breakdown of where the simulated op time went.

   Examples:
     dune exec bin/fiobench.exe                      # canned scenarios, both targets
     dune exec bin/fiobench.exe -- db-oltp --target local
     dune exec bin/fiobench.exe -- 'name=x file=x rw=randread bs=4k size=2m'
     dune exec bin/fiobench.exe -- job.fio --clients 4 --json out.json *)

open Cmdliner

let scenario_of_name name =
  List.find_opt
    (fun s -> s.Fio.Spec.name = name)
    Fio.Scenarios.all

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let resolve_specs = function
  | [] -> Ok Fio.Scenarios.all
  | args ->
      List.fold_right
        (fun arg acc ->
          match acc with
          | Error _ as e -> e
          | Ok specs -> (
              match scenario_of_name arg with
              | Some s -> Ok (s :: specs)
              | None -> (
                  let text = if Sys.file_exists arg then read_file arg else arg in
                  match Fio.Spec.parse text with
                  | Ok s -> Ok (s :: specs)
                  | Error e ->
                      Error (Printf.sprintf "spec %S: %s" arg e))))
        args (Ok [])

let run_target config clients servers topology ports_buffer spec = function
  | `Local -> [ Fio.Scenarios.run_local ~config spec ]
  | `Remote ->
      [
        Fio.Scenarios.run_remote ~config ~clients ~servers ~topology
          ?ports_buffer spec;
      ]
  | `Both ->
      [
        Fio.Scenarios.run_local ~config spec;
        Fio.Scenarios.run_remote ~config ~clients ~servers ~topology
          ?ports_buffer spec;
      ]

let run specs config clients servers topology ports_buffer target json trace =
  match resolve_specs specs with
  | Error e ->
      prerr_endline e;
      1
  | Ok specs ->
      let recorder =
        Option.map (fun _ -> Sim.Span.create_recorder ()) trace
      in
      let go () =
        List.concat_map
          (fun s ->
            run_target config clients servers topology ports_buffer s target)
          specs
      in
      let reports =
        match recorder with
        | Some r -> Sim.Span.with_recorder r go
        | None -> go ()
      in
      List.iter (fun r -> print_string (Fio.Report.to_text r)) reports;
      (match (trace, recorder) with
      | Some path, Some r ->
          let oc = open_out path in
          output_string oc (Sim.Span.to_chrome r);
          close_out oc;
          Printf.printf "wrote %s (%d traces)\n" path
            (List.length (Sim.Span.export_roots r));
          print_string (Sim.Span.render_slowest r)
      | _ -> ());
      (match json with
      | None -> ()
      | Some path ->
          let oc = open_out path in
          output_string oc "[\n";
          List.iteri
            (fun i r ->
              if i > 0 then output_string oc ",\n";
              output_string oc (Fio.Report.to_json r))
            reports;
          output_string oc "]\n";
          close_out oc;
          Printf.printf "wrote %s\n" path);
      0

let specs_t =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"SPEC"
        ~doc:
          "Workload: a canned scenario name (db-oltp, backup, mixed, \
           ilv-single, ilv-pair, strided), a spec file, or an inline \
           'key=value ...' spec.  Default: all canned scenarios.")

let target_t =
  Arg.(
    value
    & opt
        (Cli.choice "target"
           [ ("local", `Local); ("remote", `Remote); ("both", `Both) ])
        `Both
    & info [ "target"; "t" ] ~doc:"Where to run: local, remote or both.")

let json_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Also write reports as JSON.")

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record span trees for every op and write a Chrome trace-event \
           JSON file (load it in Perfetto / chrome://tracing); also prints \
           the slowest captured op trees.  Simulated results are identical \
           with or without tracing.")

let cmd =
  let doc = "declarative fio-style workloads with per-layer cost attribution" in
  Cmd.v
    (Cmd.info "fiobench" ~doc)
    Term.(
      const run $ specs_t $ Cli.config $ Cli.clients ~default:2 $ Cli.servers
      $ Cli.topology $ Cli.ports_buffer $ target_t $ json_t $ trace_t)

let () = exit (Cmd.eval' cmd)
