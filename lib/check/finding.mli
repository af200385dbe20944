(** Findings of the static analyzer.

    Severity follows the traffic-loss rule: {!Error} marks conditions
    under which the network silently loses publications (an unsound
    covering or merging decision, a routing-state invariant violation);
    {!Warning} marks workload smells and rule incompleteness, which cost
    extra traffic but never lose data; {!Info} is commentary. *)

type severity = Error | Warning | Info

type t = {
  severity : severity;
  family : string;
      (** ["workload"] | ["soundness"] | ["routing"] | ["scenario"] |
          ["obs"] *)
  code : string;  (** stable machine-readable finding kind *)
  subject : string;  (** what the finding is about *)
  witness : string;  (** the evidence: the offending pair / entry *)
}

(** A pass result: findings plus named statistics (corpus sizes,
    incompleteness rates) that the JSON report carries verbatim. *)
type report = { findings : t list; stats : (string * float) list }

val make :
  severity:severity -> family:string -> code:string -> subject:string -> witness:string -> t

val severity_to_string : severity -> string
val empty : report
val report : ?stats:(string * float) list -> t list -> report
val concat : report list -> report
val errors : report -> int
val warnings : report -> int
val infos : report -> int
val has_errors : report -> bool

(** Findings errors-first (stable within a severity). *)
val by_severity : report -> t list

(** Human-readable rendering: one line per finding with an indented
    witness, then the stats and the severity totals. *)
val to_text : report -> string

(** Machine-readable rendering (see DESIGN.md Sec. 10): severity counts,
    a flat [stats] object, and the severity-ordered findings array. *)
val to_json : report -> string

(** Feed the report's severity totals into the observability counters. *)
val record_meters : Xroute_obs.Check_meters.t -> report -> unit
