(** Structured fsck reports shared by the three file-system checkers.

    A report is a flat list of categorized findings; an empty list means
    the walked image satisfied every invariant the checker knows.  The
    categories are the vocabulary [vlsim fsck] prints and the crash
    sweep asserts over. *)

type category =
  | Leaked_block      (** allocator claims a block nothing reachable owns *)
  | Double_alloc      (** one device block claimed by two owners *)
  | Dangling_dirent   (** directory entry naming a dead inode *)
  | Orphan_inode      (** live inode no directory entry names *)
  | Bad_checksum      (** stored checksum does not match the bytes *)
  | Bad_reference     (** an index (imap, virtual-log map) points nowhere *)
  | Io_unreadable     (** the platter refuses to return the block *)
  | Map_inconsistent  (** two in-memory structures disagree *)
  | Unflushed         (** volatile state not yet on the platter *)
  | Malformed         (** a structure that decodes to nonsense *)
  | Mirror_divergence (** mirror legs disagree on a block's contents *)

val category_to_string : category -> string

type finding = { category : category; detail : string }

type t = { fs : string; findings : finding list }

val v : fs:string -> finding list -> t
val ok : t -> bool
val count : t -> category -> int

val of_media : (string * string) list -> finding list
(** Lift [verify_media] output into findings: the string slugs of the
    three file systems (which cannot depend on this library) map onto
    categories, and unknown slugs become [Malformed]. *)

val findf : category -> ('a, unit, string, finding) format4 -> 'a

val pp : Format.formatter -> t -> unit
