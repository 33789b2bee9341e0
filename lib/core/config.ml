type vol_spec = { disks : int; layout : Vol.layout; stripe_kb : int }

let single_disk = { disks = 1; layout = Vol.Concat; stripe_kb = 128 }

type t = {
  name : string;
  disk : Disk.Device.config;
  vol : vol_spec;
  memory_mb : int;
  mkfs : Ufs.Fs.mkfs_options;
  features : Ufs.Types.features;
  costs : Ufs.Costs.t;
}

let base_mkfs = Ufs.Fs.mkfs_defaults

let config_a =
  {
    name = "A";
    disk = Disk.Device.default_config;
    vol = single_disk;
    memory_mb = 8;
    mkfs = { base_mkfs with rotdelay_ms = 0; maxcontig = 15 };
    features = Ufs.Types.features_clustered;
    costs = Ufs.Costs.default;
  }

let config_b =
  {
    name = "B";
    disk = Disk.Device.default_config;
    vol = single_disk;
    memory_mb = 8;
    mkfs = { base_mkfs with rotdelay_ms = 4; maxcontig = 1 };
    features =
      {
        Ufs.Types.features_sunos41 with
        Ufs.Types.free_behind = true;
        write_limit = Some Ufs.Types.write_limit_default;
      };
    costs = Ufs.Costs.default;
  }

let config_c =
  {
    config_b with
    name = "C";
    features =
      {
        Ufs.Types.features_sunos41 with
        Ufs.Types.write_limit = Some Ufs.Types.write_limit_default;
      };
  }

let config_d =
  { config_b with name = "D"; features = Ufs.Types.features_sunos41 }

let all_figure9 = [ config_a; config_b; config_c; config_d ]

let with_cluster_kb t kb =
  let maxcontig = max 1 (kb * 1024 / Ufs.Layout.bsize) in
  {
    t with
    name = Printf.sprintf "%s/cluster%dKB" t.name kb;
    mkfs = { t.mkfs with Ufs.Fs.maxcontig };
  }

let with_write_limit t wl =
  { t with features = { t.features with Ufs.Types.write_limit = wl } }

let with_free_behind t fb =
  { t with features = { t.features with Ufs.Types.free_behind = fb } }

let with_driver_clustering t dc =
  { t with disk = { t.disk with Disk.Device.driver_clustering = dc } }

let with_vol t ?(layout = Vol.Stripe) ?(stripe_kb = 128) disks =
  if disks < 1 then invalid_arg "Config.with_vol: disks must be >= 1";
  {
    t with
    name =
      (if disks = 1 then t.name
       else
         Printf.sprintf "%s/%s×%d%s" t.name (Vol.layout_to_string layout) disks
           (if layout = Vol.Stripe then Printf.sprintf "@%dKB" stripe_kb
            else ""));
    vol = { disks; layout; stripe_kb };
  }

let with_journal ?(frags = Ufs.Fs.journal_frags_default) t =
  {
    t with
    name = t.name ^ "/jrnl";
    mkfs = { t.mkfs with Ufs.Fs.journal_frags = frags };
  }

let with_rotdelay t ms = { t with mkfs = { t.mkfs with Ufs.Fs.rotdelay_ms = ms } }
let with_memory_mb t mb = { t with memory_mb = mb }
let with_features t features = { t with features }
let with_name t name = { t with name }
