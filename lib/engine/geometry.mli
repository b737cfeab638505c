(** Machine geometry of the simulated multicore.

    All sizes are expressed in simulated machine words (one simulated word
    stands for 8 bytes of the machine the paper ran on).  Virtual and
    physical addresses are word indices. *)

type t
(** The machine geometry.  It is a compile-time constant: {!default} is the
    only value, and the accessors below compile to constant shifts and
    masks. *)

val default : t
(** 8-word (64-byte) cache lines, 512-word (4 KiB) pages. *)

val line_words : t -> int
val page_words : t -> int
val lines_per_page : t -> int

val block_of_addr : t -> int -> int
(** Cache-line (block) index of a word address. *)

val page_of_addr : t -> int -> int
(** Page index of a word address. *)

val offset_in_page : t -> int -> int
val addr_of_page : t -> int -> int

val pp : Format.formatter -> t -> unit
