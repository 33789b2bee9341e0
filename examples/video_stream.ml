(* The paper's motivating workload: "Applications such as video and
   sound require much higher data rates than are available today
   through UFS."

   A video recorder produces frames at a fixed rate into a ring of
   capture buffers and writes them to a file; if the file system cannot
   drain the buffers fast enough the recorder drops frames.  We run the
   same recorder against the old (SunOS 4.1, config D) and the new
   (clustered, config A) file systems and report the sustained rate and
   the drop count, then play the recording back.

   Run with:  dune exec examples/video_stream.exe *)

let frame_bytes = 32 * 1024 (* a quarter-resolution greyscale frame *)
let fps = 30
let seconds = 90 (* ~84 MB of video: the page cache cannot absorb the overrun *)
let ring_frames = 8 (* capture buffers the hardware can hold *)

type outcome = {
  captured : int;
  dropped : int;
  write_rate_kbps : float;
  playback_rate_kbps : float;
}

let record_and_play (config : Clusterfs.Config.t) =
  let m = Clusterfs.Machine.create config in
  Clusterfs.Machine.run m (fun m ->
      let fs = m.Clusterfs.Machine.fs in
      let engine = m.Clusterfs.Machine.engine in
      let ip = Ufs.Fs.creat fs "/capture.vid" in
      let frame_period = Sim.Time.sec 1 / fps in
      let total_frames = fps * seconds in
      (* the camera ticks on its own; the writer drains the ring *)
      let ring = ref 0 (* frames waiting in capture buffers *) in
      let produced = ref 0 and dropped = ref 0 in
      let camera_done = ref false in
      let wakeup = Sim.Condition.create engine "frames" in
      Sim.Engine.spawn engine ~name:"camera" (fun () ->
          for _ = 1 to total_frames do
            Sim.Engine.sleep engine frame_period;
            if !ring >= ring_frames then incr dropped
            else begin
              incr ring;
              incr produced
            end;
            Sim.Condition.signal wakeup
          done;
          camera_done := true;
          Sim.Condition.broadcast wakeup);
      let frame = Bytes.make frame_bytes '\177' in
      let written = ref 0 in
      let t0 = Sim.Engine.now engine in
      while (not !camera_done) || !ring > 0 do
        if !ring = 0 then Sim.Condition.wait wakeup
        else begin
          decr ring;
          Ufs.Fs.write fs ip ~off:(!written * frame_bytes) ~buf:frame
            ~len:frame_bytes;
          incr written
        end
      done;
      Ufs.Fs.fsync fs ip;
      let record_time = Sim.Engine.now engine - t0 in
      (* playback: stream the recording back at full speed *)
      Vm.Pool.invalidate_vnode fs.Ufs.Types.pool ip.Ufs.Types.inum;
      Ufs.Rstream.reset ip.Ufs.Types.rs;
      let t1 = Sim.Engine.now engine in
      let buf = Bytes.create frame_bytes in
      for i = 0 to !written - 1 do
        ignore (Ufs.Fs.read fs ip ~off:(i * frame_bytes) ~buf ~len:frame_bytes)
      done;
      let playback_time = Sim.Engine.now engine - t1 in
      Ufs.Iops.iput fs ip;
      let kb n = float_of_int (n * frame_bytes) /. 1024. in
      {
        captured = !produced;
        dropped = !dropped;
        write_rate_kbps = kb !written /. Sim.Time.to_sec_float record_time;
        playback_rate_kbps = kb !written /. Sim.Time.to_sec_float playback_time;
      })

let () =
  let need = float_of_int (fps * frame_bytes) /. 1024. in
  Printf.printf
    "video capture: %d fps x %dKB frames = %.0f KB/s required, %ds of video\n\n"
    fps (frame_bytes / 1024) need seconds;
  List.iter
    (fun (label, config) ->
      let o = record_and_play config in
      Printf.printf "%s\n" label;
      Printf.printf "  frames captured: %d   dropped: %d (%.1f%%)\n" o.captured
        o.dropped
        (100. *. float_of_int o.dropped
        /. float_of_int (max 1 (o.captured + o.dropped)));
      Printf.printf "  sustained write rate: %.0f KB/s\n" o.write_rate_kbps;
      Printf.printf "  playback rate:        %.0f KB/s (%.1fx real time)\n\n"
        o.playback_rate_kbps
        (o.playback_rate_kbps /. need))
    [
      ("old UFS (SunOS 4.1, config D):", Clusterfs.Config.config_d);
      ("clustered UFS (config A):", Clusterfs.Config.config_a);
    ]
