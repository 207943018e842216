(** OpenFlow-style match/action flow tables, reduced to what the paper's
    experiments use: destination match (exact or longest-prefix) with an
    optional VLAN-tag match (Table II). Longest prefix wins first; among
    rules of equal length, highest priority wins and ties break towards
    the oldest rule, as OpenFlow leaves this unspecified and determinism
    matters for tests.

    Exact rules live in a hashtable keyed by [dst] holding small
    priority-sorted buckets, so [lookup], [modify_actions] and [remove]
    are O(1) amortized in the number of destinations. Aggregated prefix
    rules — the output of {!Table_compiler} — live in a path-compressed
    binary trie walked only when the exact bucket misses; an exact rule
    is a full-width prefix, so this order {e is} longest-prefix match
    and update rules always shadow the compiled base. Buckets and trie
    are persistent, which makes {!snapshot}/{!restore} an O(buckets)
    hashtable copy with full structural sharing — cheap enough for the
    crash-restart model of [Chronus_faults] even at 10k rules per
    network. *)

type tag_match =
  | Any_tag
  | Tag of int  (** the LAN-ID versioning used by two-phase updates *)

type forward =
  | Out of int  (** output towards the given neighbouring switch *)
  | To_host  (** deliver: this switch is the destination *)
  | Drop

type action = {
  set_tag : int option;  (** stamp before forwarding (TP ingress) *)
  forward : forward;
}

val addr_bits : int
(** Width of the destination address space: every [dst] is interpreted
    as a bitstring this wide. [Chronus_topo.Addressing] lays out its
    hierarchical host addresses inside the same width. *)

type rule = {
  id : int;  (** unique per table, install order *)
  priority : int;
  dst : int;  (** destination address, normalised to [len] leading bits *)
  len : int;  (** prefix length; [addr_bits] for an exact rule *)
  tag_match : tag_match;
  action : action;
}

type t

val create : unit -> t

val install : t -> priority:int -> dst:int -> tag_match:tag_match -> action -> rule
(** Add an exact rule ([len = addr_bits]); returns it (with its fresh id). *)

val install_prefix :
  t -> priority:int -> prefix:int -> len:int -> tag_match:tag_match -> action -> rule
(** Add a rule matching every destination whose top [len] bits equal
    those of [prefix] (the low bits of [prefix] are ignored).
    [len = addr_bits] is exactly {!install}. Raises [Invalid_argument]
    when [len] is outside [0..addr_bits]. *)

val modify_actions : t -> dst:int -> tag_match:tag_match -> action -> int
(** Rewrite the action of every exact rule with exactly these match
    fields — Chronus's in-place action update. Returns how many rules
    changed. *)

val remove : t -> dst:int -> tag_match:tag_match -> int
(** Delete all exact rules with exactly these match fields; returns the
    count. *)

val remove_prefix : t -> prefix:int -> len:int -> tag_match:tag_match -> int
(** Delete all rules at exactly this [(prefix, len, tag_match)];
    returns the count. [len = addr_bits] is exactly {!remove}. *)

type snapshot
(** An immutable copy of a table's rule set (exact and prefix). *)

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Replace the table's rules with the snapshot's — the crash-restart
    model of [Chronus_faults]: a rebooting switch comes back with the
    configuration it had persisted. The id counter is {e not} rewound, so
    rules installed after a restore remain younger than every snapshot
    rule and tie-breaking stays deterministic. The size observer is
    called exactly once, with the signed net change (or not at all when
    the sizes already agree). *)

val lookup : t -> dst:int -> tag:int option -> rule option
(** Longest-prefix-match semantics: among rules whose prefix covers
    [dst] and whose tag constraint is satisfied ([Any_tag] always;
    [Tag v] only when the packet carries tag [v]), the longest prefix
    wins; within a length, highest priority then oldest id. *)

val size : t -> int
(** O(1): the table maintains a running rule count (exact + prefix). *)

val prefix_size : t -> int
(** How many of {!size}'s rules are aggregated prefix rules. *)

val memory_words : t -> int
(** Deterministic estimate of the table's live heap in machine words
    (rules, buckets, trie nodes) — comparable across table shapes, used
    by the scale figure to report table memory. *)

val rules : t -> rule list
(** Sorted by (priority desc, id asc); includes prefix rules. *)

val on_size_change : t -> (int -> unit) -> unit
(** Register a single observer called with the signed rule-count delta
    after every {!install}, {!install_prefix}, {!remove},
    {!remove_prefix} and {!restore} that changes the table's size.
    [Chronus_sim.Network] uses this to keep a network-wide rule total
    without rescanning every switch. *)

val pp : Format.formatter -> t -> unit
