(** Degraded-mode and rebuild-interference numbers for the volume
    layer: synchronous 4 KB random updates against a two-way mirror of
    VLD legs while healthy, with one leg dead, and during the resilver
    onto a hot spare; plus the resilver time with and without that
    foreground load. *)

val run : scale:Rigs.scale -> unit -> Vlog_util.Table.t
