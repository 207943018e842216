(** Fixed-width text tables for experiment output, rendered in the same
    row/column layout as the paper's figures report their series. *)

type t

val create : headers:string list -> t
(** @raise Invalid_argument on an empty header list. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the arity differs from the headers. *)

val render : t -> string
(** Columns padded to their widest cell, header underlined. *)

val print : t -> unit
(** [render] to stdout followed by a newline. *)
