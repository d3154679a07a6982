(** Figure 6: small-file performance.  Create / read / delete 1500 1 KB
    files on the four configurations, normalized to UFS on the regular
    disk (bars > 1 are faster than that baseline). *)

type row = {
  label : string;
  create_x : float;
  read_x : float;
  delete_x : float;
  raw : Workload.Small_file.result;
}

val series : scale:Rigs.scale -> unit -> row list
val run : scale:Rigs.scale -> unit -> Vlog_util.Table.t
