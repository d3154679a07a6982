(** The directory-entry <-> inode walk the three file-system checkers
    share. *)

val check :
  first_inum:int ->
  entries:(string * int) list ->
  live_inums:int list ->
  Report.finding list
(** [entries] are the directory's (name, inum) pairs, [live_inums] the
    inodes the file system holds, ascending.  Findings, in this order:
    per entry, [Dangling_dirent] when its inode is not live or
    [Map_inconsistent] when an earlier entry already named it; then
    [Orphan_inode] for each live inode from [first_inum] on that no entry
    names.  UFS passes [first_inum = 0]; LFS and VLFS pass 1, since inum
    0 is their directory file. *)
