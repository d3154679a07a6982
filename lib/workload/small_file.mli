(** Small-file benchmark (Figure 6): create N 1 KB files, read them back
    after a cache flush, delete them.  Run on an empty file system. *)

type result = {
  create_ms : float;
  read_ms : float;
  delete_ms : float;
  files : int;
}

val run : ?files:int -> Rig.stack -> result
(** Default 1500 files, as in the paper. *)

val normalize : baseline:result -> result -> float * float * float
(** Per-phase speedup relative to a baseline run (the paper normalizes to
    UFS on the regular disk): [(create, read, delete)], where > 1 means
    faster than the baseline. *)
