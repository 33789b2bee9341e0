(* "Some users, mostly those running database applications, actually
   [use the raw disk]...  The fact that users resort to the raw disk is
   usually an indication that the file system is too slow."

   A miniature database with the three classic I/O shapes:
     - bulk load:   sequential writes of the whole table (+ fsync)
     - table scan:  sequential read of the whole table
     - OLTP:        random 8KB page updates + a write-ahead log that is
                    appended and fsync'd per group commit
   run on the old (D) and the clustered (A) file system.  The paper's
   prediction holds per phase: the sequential phases gain ~1.6-2x, the
   random phase is untouched — exactly the profile that decides whether
   a database can live on the file system instead of the raw disk.

   Run with:  dune exec examples/database.exe *)

let table_mb = 12
let commits = 60
let pages_per_txn = 3
let log_bytes_per_commit = 64 * 1024

type outcome = {
  load_kbps : float;
  scan_kbps : float;
  txn_per_sec : float;
  commit_ms : float;
}

let run_db (config : Clusterfs.Config.t) =
  let m = Clusterfs.Machine.create config in
  Clusterfs.Machine.run m (fun m ->
      let fs = m.Clusterfs.Machine.fs in
      let engine = m.Clusterfs.Machine.engine in
      let now () = Sim.Engine.now engine in
      Ufs.Fs.mkdir fs "/db";
      let table = Ufs.Fs.creat fs "/db/table" in
      let log = Ufs.Fs.creat fs "/db/wal" in

      (* ---- bulk load ---- *)
      let page = Bytes.make 8192 'T' in
      let t0 = now () in
      for i = 0 to (table_mb * 128) - 1 do
        Ufs.Fs.write fs table ~off:(i * 8192) ~buf:page ~len:8192
      done;
      Ufs.Fs.fsync fs table;
      let load_time = now () - t0 in

      (* ---- table scan (cold) ---- *)
      Vm.Pool.invalidate_vnode fs.Ufs.Types.pool table.Ufs.Types.inum;
      Ufs.Rstream.reset table.Ufs.Types.rs;
      let t0 = now () in
      let buf = Bytes.create 8192 in
      for i = 0 to (table_mb * 128) - 1 do
        ignore (Ufs.Fs.read fs table ~off:(i * 8192) ~buf ~len:8192)
      done;
      let scan_time = now () - t0 in

      (* ---- OLTP ---- *)
      let rng = Sim.Rng.create ~seed:7 in
      let logrec = Bytes.make log_bytes_per_commit 'L' in
      let log_off = ref 0 in
      let commit_time = ref 0 in
      let t0 = now () in
      for _ = 1 to commits do
        for _ = 1 to pages_per_txn do
          let p = Sim.Rng.int rng (table_mb * 128) in
          ignore (Ufs.Fs.read fs table ~off:(p * 8192) ~buf ~len:8192);
          Bytes.set buf 0 'U';
          Ufs.Fs.write fs table ~off:(p * 8192) ~buf ~len:8192
        done;
        let c0 = now () in
        Ufs.Fs.write fs log ~off:!log_off ~buf:logrec ~len:log_bytes_per_commit;
        log_off := !log_off + log_bytes_per_commit;
        Ufs.Fs.fsync fs log;
        commit_time := !commit_time + (now () - c0)
      done;
      Ufs.Fs.fsync fs table;
      let oltp_time = now () - t0 in
      Ufs.Iops.iput fs table;
      Ufs.Iops.iput fs log;
      let kb = float_of_int (table_mb * 1024) in
      {
        load_kbps = kb /. Sim.Time.to_sec_float load_time;
        scan_kbps = kb /. Sim.Time.to_sec_float scan_time;
        txn_per_sec = float_of_int commits /. Sim.Time.to_sec_float oltp_time;
        commit_ms = Sim.Time.to_ms_float !commit_time /. float_of_int commits;
      })

let () =
  Printf.printf
    "mini database on a %dMB table: bulk load, full scan, then %d OLTP\n\
     group commits (%d random page updates + %dKB fsync'd WAL each)\n\n"
    table_mb commits pages_per_txn (log_bytes_per_commit / 1024);
  let results =
    List.map
      (fun (label, config) -> (label, run_db config))
      [
        ("old UFS (D)", Clusterfs.Config.config_d);
        ("clustered UFS (A)", Clusterfs.Config.config_a);
      ]
  in
  Printf.printf "%-18s %12s %12s %10s %12s\n" "configuration" "load KB/s"
    "scan KB/s" "txn/s" "commit ms";
  List.iter
    (fun (label, o) ->
      Printf.printf "%-18s %12.0f %12.0f %10.2f %12.1f\n" label o.load_kbps
        o.scan_kbps o.txn_per_sec o.commit_ms)
    results;
  match results with
  | [ (_, d); (_, a) ] ->
      Printf.printf
        "\nload %.2fx, scan %.2fx, OLTP %.2fx — sequential database work gets\n\
         the clustering win; random page traffic neither gains nor loses.\n"
        (a.load_kbps /. d.load_kbps)
        (a.scan_kbps /. d.scan_kbps)
        (a.txn_per_sec /. d.txn_per_sec)
  | _ -> ()
