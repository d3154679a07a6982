(** Figure 7: large-file performance.  Bandwidth (MB/s) per phase of the
    10 MB benchmark on the four configurations; the synchronous
    random-write phase runs only for UFS, as in the paper. *)

type row = { label : string; phases : Workload.Large_file.result }

val series : scale:Rigs.scale -> unit -> row list
val run : scale:Rigs.scale -> unit -> Vlog_util.Table.t
