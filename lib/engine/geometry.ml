(* Machine geometry of the simulated multicore.

   All sizes are expressed in simulated machine words (one word = 8 simulated
   bytes).  Addresses, both virtual and physical, are word indices.  The
   geometry mirrors a conventional x86-64 machine scaled down so that the
   simulation stays tractable: 64-byte cache lines (8 words) and 4 KiB pages
   (512 words).

   The geometry is fixed at compile time: [t] has the single value
   [default], and every accessor ignores its argument, so an address split
   on the per-access path is a constant shift or mask rather than a load
   from a record. *)

type t = Default

let default = Default
let line_bits = 3
let page_bits = 9

let[@inline] line_words (_ : t) = 1 lsl line_bits
let[@inline] page_words (_ : t) = 1 lsl page_bits
let[@inline] lines_per_page (_ : t) = 1 lsl (page_bits - line_bits)

let[@inline] block_of_addr (_ : t) addr = addr asr line_bits
let[@inline] page_of_addr (_ : t) addr = addr asr page_bits
let[@inline] offset_in_page (_ : t) addr = addr land ((1 lsl page_bits) - 1)
let[@inline] addr_of_page (_ : t) page = page lsl page_bits

let pp ppf t =
  Fmt.pf ppf "geometry{line=%dw page=%dw}" (line_words t) (page_words t)
