(** Core scalar types shared by the whole system: SQL data types, column
    references and constant values. *)

(** SQL column data types.  Widths are in bytes. *)
type data_type =
  | Int
  | Float
  | Date
  | Char of int  (** fixed width *)
  | Varchar of int  (** declared maximum width *)

val width_of_type : data_type -> float
(** Average stored width of a value of this type, in bytes (half the
    declared maximum for variable-length types). *)

val pp_data_type : Format.formatter -> data_type -> unit

(** A qualified column reference.  [tbl] may name a base table or a
    synthesized view-table; the rest of the system treats both uniformly. *)
type column = { tbl : string; col : string }

(** Column references with total order, suitable for sets and maps. *)
module Column : sig
  type t = column

  val make : string -> string -> t
  (** [make tbl col] *)

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val hash : t -> int
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

module Column_set : Set.S with type elt = column
module Column_map : Map.S with type key = column

val pp_column_set : Format.formatter -> Column_set.t -> unit
val column_set_of_list : column list -> Column_set.t

(** SQL constants.  Dates are day numbers, so they order and subtract like
    integers. *)
type value =
  | VInt of int
  | VFloat of float
  | VString of string
  | VDate of int

module Value : sig
  type t = value

  val to_float : t -> float
  (** Order-preserving embedding into floats, used by histograms and
      selectivity estimation.  Strings embed by their first eight bytes. *)

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string

  val pp_key : Format.formatter -> t -> unit
  (** {!pp}, but exact: a float whose [%g] text does not read back as the
      same float is written with [%h].  For keys and names, where two
      distinct constants must never print alike. *)
end

(** Comparison operators appearing in predicates. *)
type cmp_op = Eq | Neq | Lt | Le | Gt | Ge

val pp_cmp_op : Format.formatter -> cmp_op -> unit

(** Arithmetic operators in scalar expressions. *)
type arith_op = Add | Sub | Mul | Div

val pp_arith_op : Format.formatter -> arith_op -> unit

type order_dir = Asc | Desc

val pp_order_dir : Format.formatter -> order_dir -> unit
