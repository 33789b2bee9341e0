type result = {
  file_mb : int;
  elapsed : Sim.Time.t;
  sys_cpu : Sim.Time.t;
  kb_per_sec : float;
}

let run (fs : Ufs.Types.fs) ~path ~file_mb =
  let ip = Ufs.Fs.namei fs path in
  Fun.protect
    ~finally:(fun () -> Ufs.Iops.iput fs ip)
    (fun () ->
      (* cold start, as in a fresh run *)
      Ufs.Putpage.push_delayed fs ip ~sync:true ();
      Vm.Pool.invalidate_vnode fs.Ufs.Types.pool ip.Ufs.Types.inum;
      Ufs.Rstream.reset ip.Ufs.Types.rs;
      let engine = fs.Ufs.Types.engine in
      let cpu = fs.Ufs.Types.cpu in
      let total = file_mb * 1024 * 1024 in
      (* map the file into an address space, figure-1 style: the
         segment's fault handler charges the fault cost and calls the
         vnode's getpage *)
      let asp = Vm.Seg.create engine in
      let vn = Ufs.Iops.vnode_of fs ip in
      let mapping =
        Vm.Seg.map asp ~len:total ~pagesize:Ufs.Layout.bsize
          ~fault:(fun ~off ->
            Sim.Cpu.charge cpu ~label:"fault" fs.Ufs.Types.costs.Ufs.Costs.fault;
            match Vfs.Vnode.getpage vn ~off ~len:Ufs.Layout.bsize ~hint:0 with
            | [ page ] -> page
            | _ -> assert false)
          ()
      in
      let t0 = Sim.Engine.now engine in
      let c0 = Sim.Cpu.sys_time cpu in
      let npages = total / Ufs.Layout.bsize in
      for p = 0 to npages - 1 do
        (* the benchmark touches one word per page: a translation miss
           faults, repeated touches are free *)
        let page = Vm.Seg.fault asp (Vm.Seg.base mapping + (p * Ufs.Layout.bsize)) in
        Vm.Page.set_referenced page true
      done;
      let elapsed = Sim.Engine.now engine - t0 in
      Vm.Seg.unmap asp mapping;
      {
        file_mb;
        elapsed;
        sys_cpu = Sim.Cpu.sys_time cpu - c0;
        kb_per_sec =
          (if elapsed = 0 then 0.
           else float_of_int total /. 1024. /. Sim.Time.to_sec_float elapsed);
      })
