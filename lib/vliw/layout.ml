(* Binary size model for assembled VLIW code
   ("AssembleVLIWsIntoBinaryCode").

   We do not emit actual VLIW machine words — the bit-level encoding is
   explicitly out of the paper's scope too — but the code-expansion and
   instruction-cache experiments need faithful sizes and addresses.
   Model: a 4-byte header per VLIW (valid-entry marker + base-offset
   no-op of Section 3.5), 4 bytes per primitive operation, 4 bytes per
   conditional test, 4 bytes per exit. *)

(** Address where translated code begins in VLIW space. *)
let vliw_base = 0x8000_0000

(** The paper's N: a base page maps to an N-times-larger translated
    page. *)
let expansion = 4

let rec node_size (n : Tree.node) =
  (4 * List.length n.ops)
  + match n.kind with
    | Tree.Open | Exit _ -> 4
    | Branch { taken; fall; _ } -> 4 + node_size taken + node_size fall

(** Size in bytes of one assembled VLIW. *)
let size (t : Tree.t) = 4 + node_size (Tree.root t)
