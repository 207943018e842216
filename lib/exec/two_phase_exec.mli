(** Executing the TP baseline on the simulator: the two-phase commit with
    LAN-ID versioning described in Section V-A. Initial rules match tag 1
    and the ingress stamps tag 1; phase one installs tag-2 rules along the
    final path, phase two flips the ingress stamp, and the tag-1 rules are
    garbage-collected once old-tag traffic has drained. The rule-table
    peak during the transition is the Fig. 9 cost. *)

open Chronus_sim
type t = {
  result : Exec_env.result;
  phase1_done : Sim_time.t;
  phase2_done : Sim_time.t;
  rules_installed : int;  (** tag-2 rules added in phase one *)
}

val install_final_rules : Exec_env.env -> tag:int -> Sim_time.t * int
(** Phase one, from inside a fiber on the environment's runtime: install
    a [tag]-matching rule along the final path on every final-path switch
    but the destination, in path order, then wait on one barrier across
    them. Returns the barrier reply time and the number of rules
    installed. *)

val flip_ingress : Exec_env.env -> tag:int -> Sim_time.t
(** Phase two, from inside a fiber: make the source stamp [tag] and
    forward along the final path, then wait on its barrier. Returns the
    barrier reply time. *)

val run :
  ?config:Exec_env.config ->
  ?seed:int ->
  ?faults:Chronus_faults.Faults.config ->
  Chronus_flow.Instance.t ->
  t
