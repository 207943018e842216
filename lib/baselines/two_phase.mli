(** The TP baseline: two-phase commit updates (Reitblatt et al.,
    SIGCOMM'12), versioned with VLAN-tag stamping as in the paper's
    experiments.

    Phase one installs, at every switch of the final path, a copy of the
    forwarding rule matching the new version tag, while traffic is still
    stamped with the old tag and follows the old rules. Phase two flips
    the stamp at the ingress; in-flight old-tag packets drain, after which
    the old rules are garbage-collected. The protocol is per-packet
    consistent by construction but is oblivious to link capacities and
    transmission delays, and it doubles the rule footprint during the
    transition — the cost plotted in Fig. 9. *)

open Chronus_flow

type rule_count = {
  steady : int;  (** rules before/after the update (one per path switch) *)
  transition_peak : int;
      (** rules present between phase one and garbage collection: old
          rules + tagged new rules + the ingress stamping rule *)
}

val rule_count : Instance.t -> rule_count

val chronus_rule_count : Instance.t -> int
(** Rules Chronus needs during the same transition: one per switch on
    either path (actions are modified in place, no versioned copies). *)
