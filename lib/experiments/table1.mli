(** Table 1: parameters of the HP97560 and Seagate ST19101 disks. *)

val run : scale:Rigs.scale -> unit -> Vlog_util.Table.t
