type target = Local of Ufs.Types.fs | Remote of Nfs.Client.t

type t =
  | Local_file of Ufs.Types.fs * Ufs.Types.inode
  | Remote_file of Nfs.Client.file

let open_ target ~create path =
  match target with
  | Local fs ->
      let ip = if create then Ufs.Fs.creat fs path else Ufs.Fs.namei fs path in
      Local_file (fs, ip)
  | Remote mount -> (
      if create then Remote_file (Nfs.Client.create mount path)
      else
        match Nfs.Client.lookup mount path with
        | Some f -> Remote_file f
        | None -> failwith ("Handle.open_: no such remote file " ^ path))

let read h ~off ~buf ~len =
  match h with
  | Local_file (fs, ip) -> Ufs.Fs.read fs ip ~off ~buf ~len
  | Remote_file f -> Nfs.Client.read f ~off ~buf ~len

let write h ~off ~buf ~len =
  match h with
  | Local_file (fs, ip) -> Ufs.Fs.write fs ip ~off ~buf ~len
  | Remote_file f -> Nfs.Client.write f ~off ~buf ~len

let fsync = function
  | Local_file (fs, ip) -> Ufs.Fs.fsync fs ip
  | Remote_file f -> Nfs.Client.fsync f

let cold = function
  | Local_file (fs, ip) ->
      Ufs.Putpage.push_delayed fs ip ~sync:true ();
      Ufs.Io.wait_writes fs ip;
      Vm.Pool.invalidate_vnode fs.Ufs.Types.pool ip.Ufs.Types.inum;
      Ufs.Rstream.reset ip.Ufs.Types.rs;
      ip.Ufs.Types.bmap_cache <- None
  | Remote_file f -> Nfs.Client.invalidate f

let close = function
  | Local_file (fs, ip) -> Ufs.Iops.iput fs ip
  | Remote_file _ -> ()

let engine = function
  | Local fs -> fs.Ufs.Types.engine
  | Remote mount -> Nfs.Client.engine mount

let cpu = function
  | Local fs -> fs.Ufs.Types.cpu
  | Remote mount -> Nfs.Client.cpu mount
