(* Tree VLIW instructions.

   A VLIW is a tree of conditional tests [Ebcioglu88]: all tests are
   evaluated against the state at VLIW entry, which selects one
   root-to-leaf path; the ALU/memory operations on that path execute in
   parallel (reads before writes), and the leaf names the successor.

   The translator grows trees through mutable "tips": a tip is an open
   leaf to which operations are appended and which is eventually closed
   with an exit or split by a conditional branch. *)

(** A conditional test: a CR bit over the 16 fields (0..63) and the
    sense in which the branch is taken. *)
type test = { bit : int; sense : bool }

type trap =
  | Tsc of int       (** system call; argument = base address after the sc *)
  | Trfi             (** return from interrupt *)
  | Tillegal of int
      (** untranslatable word (illegal, unfetchable, or needing more
          renamed registers than the pool); argument = its base address,
          which the monitor hands to the interpreter *)

type exit =
  | Next of int      (** fall through to VLIW [id] of the same translation *)
  | OnPage of int    (** go to the valid entry for base page offset *)
  | OffPage of int   (** GO_ACROSS_PAGE to an absolute base address *)
  | Indirect of Op.loc * [ `Lr | `Ctr | `Gpr ]
      (** GO_ACROSS_PAGE through the (possibly renamed) location holding
          LR, CTR, or — for base architectures like S/390 where all
          branches are register-indirect — a plain GPR; the second
          component records the architected source for the
          cross-page-branch-type statistics *)
  | Trap of trap

type node = {
  mutable ops : (int * Op.t) list;  (** reversed; int = program-order seq *)
  mutable kind : kind;
}

and kind =
  | Open
  | Exit of exit
  | Branch of { test : test; taken : node; fall : node }

type t = {
  id : int;
  root : node Lazy.t;
      (** the tree body: a plain value for a tree the translator built,
          decoded on first use for one read from the translation cache
          (read it through {!root}) *)
  mutable precise_entry : int;
      (** base-architecture address corresponding to the state at entry
          to this VLIW: every earlier base instruction has committed,
          none at or after this address has (Section 3.5) *)
  mutable is_entry : bool;  (** marked as a valid entry point *)
  mutable alu : int;        (** ALU slots used (including commits) *)
  mutable mem : int;        (** memory slots used *)
  mutable br : int;         (** conditional branches in the tree *)
  mutable free_gprs : int;  (** bitmask over r32..r63: 1 = free until path end *)
  mutable free_crs : int;   (** bitmask over cr8..cr15 *)
}

let new_node () = { ops = []; kind = Open }

let create ~id ~precise_entry =
  { id; root = Lazy.from_val (new_node ()); precise_entry; is_entry = false;
    alu = 0; mem = 0; br = 0; free_gprs = 0xFFFF_FFFF; free_crs = 0xFF }

(** The tree's root node, decoding a cached body the first time. *)
let root t = Lazy.force t.root

(** Append an operation to a tip. *)
let add_op (tip : node) seq op = tip.ops <- (seq, op) :: tip.ops

let ops_in_order (n : node) = List.rev n.ops

let assert_open (tip : node) =
  match tip.kind with Open -> () | Exit _ | Branch _ -> assert false

(** Close a tip with an exit. *)
let close (tip : node) exit =
  assert_open tip;
  tip.kind <- Exit exit

(** Split a tip with a conditional test; returns [(taken, fall)] tips. *)
let split (tip : node) test =
  assert_open tip;
  let taken = new_node () and fall = new_node () in
  tip.kind <- Branch { test; taken; fall };
  (taken, fall)

(** Total number of operations in the tree (all paths). *)
let rec count_node n =
  List.length n.ops
  + match n.kind with
    | Open | Exit _ -> 0
    | Branch { taken; fall; _ } -> count_node taken + count_node fall

let op_count t = count_node (root t)

(** All operations in the tree, any order. *)
let rec node_ops n =
  ops_in_order n
  @ match n.kind with
    | Open | Exit _ -> []
    | Branch { taken; fall; _ } -> node_ops taken @ node_ops fall

let all_ops t = node_ops (root t)

let pp_exit ppf = function
  | Next id -> Format.fprintf ppf "b VLIW%d" id
  | OnPage off -> Format.fprintf ppf "b ONPAGE+0x%x" off
  | OffPage a -> Format.fprintf ppf "b OFFPAGE 0x%x" a
  | Indirect (l, `Lr) -> Format.fprintf ppf "b OFFPAGE (*%a as lr)" Op.pp_loc l
  | Indirect (l, `Ctr) -> Format.fprintf ppf "b OFFPAGE (*%a as ctr)" Op.pp_loc l
  | Indirect (l, `Gpr) -> Format.fprintf ppf "b OFFPAGE (*%a)" Op.pp_loc l
  | Trap (Tsc _) -> Format.fprintf ppf "sc"
  | Trap Trfi -> Format.fprintf ppf "rfi"
  | Trap (Tillegal a) -> Format.fprintf ppf "illegal@0x%x" a

let rec pp_node indent ppf n =
  let pad = String.make indent ' ' in
  List.iter
    (fun (_, op) -> Format.fprintf ppf "%s%a@\n" pad Op.pp op)
    (ops_in_order n);
  match n.kind with
  | Open -> Format.fprintf ppf "%s<open>@\n" pad
  | Exit e -> Format.fprintf ppf "%s%a@\n" pad pp_exit e
  | Branch { test; taken; fall } ->
    Format.fprintf ppf "%sif cr.bit%d=%b:@\n" pad test.bit test.sense;
    pp_node (indent + 2) ppf taken;
    Format.fprintf ppf "%selse:@\n" pad;
    pp_node (indent + 2) ppf fall

(** Print the whole tree instruction, paper-figure style. *)
let pp ppf t =
  Format.fprintf ppf "VLIW%d:  (entry=0x%x%s)@\n" t.id t.precise_entry
    (if t.is_entry then ", valid-entry" else "");
  pp_node 2 ppf (root t)
