(** Application-level workloads.

    The paper motivates eager writing with "recoverable virtual memory,
    persistent object stores, and database applications" and cites the
    TPC-B/TPC-C specifications; these drivers model that class of user:

    - {!tpcb}: account-table page updates plus a history append, each
      transaction durable before commit (synchronous);
    - {!postmark}: the classic small-file churn of a mail/news spool —
      create, deliver (read), append, expire (delete). *)

type txn_result = {
  transactions : int;
  mean_ms : float;
  p90_ms : float;
  max_ms : float;
}

val tpcb : ?transactions:int -> prng:Vlog_util.Prng.t -> Rig.stack -> txn_result
(** Default 300 transactions over a 10 MB account table, each 3 random
    page updates plus one history append.  Every transaction ends with a
    sync (commit). *)

type churn_result = {
  operations : int;
  total_ms : float;
  ops_per_sec : float;  (** of simulated time *)
}

val postmark : ?operations:int -> prng:Vlog_util.Prng.t -> Rig.stack -> churn_result
(** Default 2000 operations, at most 300 live files.  Mix: ~40 %
    deliveries (create+write, 1-8 KB), ~25 % reads, ~15 % appends,
    ~20 % expiries; a sync every 50 operations. *)
