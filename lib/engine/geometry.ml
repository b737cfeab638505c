(* Machine geometry of the simulated multicore.

   All sizes are expressed in simulated machine words (one word = 8 simulated
   bytes).  Addresses, both virtual and physical, are word indices.  The
   geometry mirrors a conventional x86-64 machine scaled down so that the
   simulation stays tractable: 64-byte cache lines (8 words) and 4 KiB pages
   (512 words). *)

type t = {
  line_bits : int;  (** log2 of the cache-line size in words *)
  page_bits : int;  (** log2 of the page size in words *)
}

let default = { line_bits = 3; page_bits = 9 }

let[@inline] line_words t = 1 lsl t.line_bits
let[@inline] page_words t = 1 lsl t.page_bits
let[@inline] lines_per_page t = 1 lsl (t.page_bits - t.line_bits)

let[@inline] block_of_addr t addr = addr asr t.line_bits
let[@inline] page_of_addr t addr = addr asr t.page_bits
let[@inline] offset_in_page t addr = addr land (page_words t - 1)
let[@inline] addr_of_page t page = page lsl t.page_bits

let pp ppf t =
  Fmt.pf ppf "geometry{line=%dw page=%dw}" (line_words t) (page_words t)
