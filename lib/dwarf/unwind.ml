module Machine = Retrofit_fiber.Machine
module Layout = Retrofit_fiber.Layout
module Fiber = Retrofit_fiber.Fiber

type entry =
  | Frame of { fn : string; pc : int; cfa : int }
  | C_boundary
  | Fiber_boundary of int
  | Main_end
  | Captured_end

exception Unwind_error of string

let error fmt = Printf.ksprintf (fun msg -> raise (Unwind_error msg)) fmt

let iter_from ?interp_ops table machine ~pc ~sp emit =
  let guard = ref 1_000_000 in
  let read addr =
    match Machine.read_mem machine addr with
    | v -> v
    | exception Invalid_argument msg -> error "bad memory read: %s" msg
  in
  let rec walk ~pc ~sp =
    decr guard;
    if !guard <= 0 then error "unwind did not terminate";
    match Table.find table ~pc with
    | None -> error "no FDE covers pc %d" pc
    | Some fde ->
        let offset = Interp.cfa_offset ?ops:interp_ops fde ~pc in
        let cfa = sp + offset in
        emit (Frame { fn = fde.Table.fde_fn; pc; cfa });
        let ra = read (cfa - Cfi.ra_offset) in
        if ra = Layout.ret_to_parent then begin
          (* Fiber bottom: locate the fiber from the address, read the
             parent id out of its handler_info, resume from the parent's
             saved registers. *)
          match Machine.stack_top_at machine cfa with
          | exception Not_found -> error "no fiber owns address %d" cfa
          | top -> (
              let parent_id = read (top - 1) in
              if parent_id < 0 then emit Captured_end
              else
                match
                  (Machine.saved_pc machine parent_id, Machine.saved_sp machine parent_id)
                with
                | exception Not_found -> error "parent fiber %d is not live" parent_id
                | pc, sp ->
                    emit (Fiber_boundary parent_id);
                    walk ~pc ~sp)
        end
        else if ra = Layout.cb_done then begin
          emit C_boundary;
          (* Skip the boundary trap (2 words) and recover the saved
             pre-callback pc from the context word. *)
          let pre_pc = read (cfa + 2) in
          walk ~pc:pre_pc ~sp:(cfa + 3)
        end
        else if ra = Layout.main_done then emit Main_end
        else if Layout.is_sentinel ra then error "unexpected sentinel %d" ra
        else walk ~pc:ra ~sp:cfa
  in
  walk ~pc ~sp

let backtrace_from ?interp_ops table machine ~pc ~sp =
  let out = ref [] in
  iter_from ?interp_ops table machine ~pc ~sp (fun e -> out := e :: !out);
  List.rev !out

let iter ?interp_ops table machine emit =
  let id = Machine.current_id machine in
  iter_from ?interp_ops table machine ~pc:(Machine.saved_pc machine id)
    ~sp:(Machine.saved_sp machine id) emit

let backtrace ?interp_ops table machine =
  let id = Machine.current_id machine in
  backtrace_from ?interp_ops table machine ~pc:(Machine.saved_pc machine id)
    ~sp:(Machine.saved_sp machine id)

let snapshot_continuations table machine =
  List.map
    (fun (kid, fibers) ->
      let (f : Fiber.t) = List.hd fibers in
      (kid, backtrace_from table machine ~pc:f.Fiber.regs.pc ~sp:f.Fiber.regs.sp))
    (Machine.live_continuations machine)

let name = function
  | Frame { fn; _ } -> Some fn
  | C_boundary -> Some "<C>"
  | Fiber_boundary _ -> None
  | Main_end -> Some "<main>"
  | Captured_end -> Some "<captured>"

let names entries = List.filter_map name entries

let format entries =
  let buf = Buffer.create 256 in
  let n = ref 0 in
  List.iter
    (fun e ->
      (match e with
      | Frame { fn; pc; cfa } ->
          Buffer.add_string buf (Printf.sprintf "#%-2d %s () at pc=%d cfa=%d\n" !n fn pc cfa)
      | C_boundary -> Buffer.add_string buf (Printf.sprintf "#%-2d <C frames>\n" !n)
      | Fiber_boundary id ->
          Buffer.add_string buf (Printf.sprintf "--- fiber boundary (parent %d) ---\n" id)
      | Main_end -> Buffer.add_string buf (Printf.sprintf "#%-2d <main>\n" !n)
      | Captured_end ->
          Buffer.add_string buf "--- captured continuation (no parent) ---\n");
      match e with Fiber_boundary _ -> () | _ -> incr n)
    entries;
  Buffer.contents buf
