(** Machine-checkable verdicts of the static data-plane verifier.

    A report aggregates every violation found by {!As_check},
    {!Net_check} and {!Verifier} over a set of destinations, together
    with coverage statistics, and serialises to JSON through the
    observability layer's {!Mifo_util.Obs.Json} — the format
    [mifo_sim check] emits and the CI gate greps. *)

type level = As_level | Router_level

val level_to_string : level -> string

type violation =
  | Forwarding_loop of {
      dest : int;  (** destination AS *)
      level : level;
      entry : int list;  (** nodes from a traffic source into the cycle *)
      cycle : int list;  (** the cycle, head repeated last, e.g. [[1;2;3;1]] *)
    }  (** A reachable cycle in the deflection product automaton. *)
  | Valley_path of { dest : int; at : int; via : int; path : int list }
      (** A RIB-derivable path (default or alternative) that is not
          valley-free. *)
  | Rib_len_mismatch of { dest : int; at : int; via : int; expected : int; actual : int }
      (** A RIB entry whose advertised AS-path length disagrees with the
          concrete path it denotes. *)
  | Dangling_fib_port of { node : int; prefix : string; port : int; reason : string }
      (** A FIB port (default or alternative) not backed by a RIB route,
          wired to the wrong kind of neighbor, or — for an iBGP
          alternative — whose tunnel endpoint is not an iBGP peer or has
          no route for the prefix. *)
  | Ebgp_tunnel_egress of { node : int; endpoint : int; port : int; prefix : string }
      (** An encapsulated packet can be forwarded out an eBGP port
          before reaching its tunnel endpoint — it would leave the AS
          still wearing the outer header and never terminate the
          tunnel. *)
  | Unreachable of { dest : int; node : int }
      (** A node with no route toward a destination the control plane
          says is reachable. *)
  | Black_hole of {
      dest : int;
      at : int;  (** the stranded AS: root-reachable, cannot reach [dest] *)
      path : int list;  (** concrete AS path from a source to [at], inclusive *)
      moves : Automaton.move list;  (** the decision script along [path] *)
      failed_link : (int * int) option;  (** the failure overlay, if any *)
    }
      (** A root-reachable automaton state that cannot co-reach the
          destination — a deflection strategy exists that strands the
          packet.  Replaying [moves] through {!Mifo_core.Loop_walk.walk}
          (with [?link_up] masking [failed_link]) must come back
          [Dropped]. *)
  | Stretch_exceeded of {
      dest : int;
      src : int;  (** the source whose worst path overshoots *)
      default_len : int;  (** its default AS-path length *)
      actual_len : int;  (** the worst deliverable deflection path length *)
      bound : int;  (** the allowed excess over [default_len] *)
      path : int list;  (** a concrete worst path, source to destination *)
      moves : Automaton.move list;  (** its decision script; replays [Delivered] *)
    }
      (** A deflection path longer than default + bound. *)
  | Failure_loop of {
      dest : int;
      failed_link : int * int;
      entry : int list;
      cycle : int list;
    }
      (** A forwarding loop that appears only under the single-link
          failure overlay (mask + local repair). *)

type stats = {
  dests_checked : int;
  states_explored : int;  (** product-automaton states visited *)
  paths_checked : int;  (** RIB paths audited for valleys/lengths *)
  fib_entries_checked : int;
  delivery_states : int;  (** (AS, tag) states examined by the delivery check *)
  stranded_states : int;  (** root-reachable states that cannot deliver *)
  stretch_states : int;  (** states with a finite worst-path length *)
  max_stretch : int;  (** worst observed stretch; {!add_stats} takes the max *)
  failed_links : int;  (** default-tree links swept by resilience *)
  unprotectable_links : int;  (** failed links with no surviving RIB route *)
  resilience_full_checks : int;  (** sweeps that escalated to a full re-check *)
}

val empty_stats : stats
val add_stats : stats -> stats -> stats

type t = { violations : violation list; stats : stats }

val empty : t
val ok : t -> bool
val merge : t list -> t

val kind_of : violation -> string
(** Stable kebab-case discriminator, also the ["kind"] field in JSON. *)

val violation_to_json : violation -> Mifo_util.Obs.Json.t
val violation_to_string : violation -> string

val to_json : t -> Mifo_util.Obs.Json.t
val to_json_string : t -> string
(** [{"ok": bool, "violations": [...], "stats": {...}}] *)

val summary : t -> string
(** Human-readable multi-line summary: one header line, then one line
    per violation. *)
