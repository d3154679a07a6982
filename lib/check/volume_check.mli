(** Volume-level fsck: verifies the mirror legs of a {!Volume.t} agree,
    below any file system.

    Meant to run after the volume has settled (suspects resolved,
    rebuilds complete) and, post-crash, after the recovered volume's
    resync pass: every live leg of a group must then return byte-identical
    content for every block.  Divergence means the resync missed
    something — a real consistency bug, not degraded operation. *)

val check : Volume.t -> Report.t
(** Cross-reads every group-block on all healthy legs.  Findings:
    [Mirror_divergence] (legs disagree), [Io_unreadable] (a live leg
    cannot produce a block), [Unflushed] (redundancy not yet restored:
    dead/suspect legs, an active rebuild, or pending dirty-region
    entries). *)
