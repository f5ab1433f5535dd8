type entry = {
  name : string;
  note : string;
  program : Retrofit_fiber.Ir.program;
  expect : Outcome.t;
}

open Retrofit_fiber.Ir

let plain = fn

let effc name body =
  (* convention: an effect case [h] binds [h_x] (payload) and [h_k]. *)
  fn name [ name ^ "_x"; name ^ "_k" ] body

let id = plain "id" [ "id_p" ] (Var "id_p")

(* The body call [f()] under a handler with return case [ret] and the
   given effect cases. *)
let handle ?(ret = "id") f effcs =
  Handle { body_fn = f; body_args = []; retc = ret; exncs = []; effcs }

let mk name note fns expect =
  let program = { fns; main = "main" } in
  (match Fragment.validate program with
  | Ok () -> ()
  | Error msg -> invalid_arg (Printf.sprintf "corpus entry %s: %s" name msg));
  { name; note; program; expect }

let entries =
  [
    mk "double_resume_after_return"
      "second resume of a continuation whose first resume already ran the \
       body to completion raises Invalid_argument at the resume site"
      [
        id;
        effc "h"
          (Seq (Continue (Var "h_k", Var "h_x"), Continue (Var "h_k", Var "h_x")));
        plain "body" [] (Perform ("E1", Int 1));
        plain "main" [] (handle "body" [ ("E1", "h") ]);
      ]
      Outcome.One_shot;
    mk "discontinue_never_resumed"
      "discontinue of a fresh continuation injects the exception at the \
       perform site, where the body catches it"
      [
        id;
        effc "h" (Discontinue (Var "h_k", "A", Var "h_x"));
        plain "body" []
          (Trywith
             ( Perform ("E1", Int 7),
               [ ("A", "e", Binop (Add, Var "e", Int 100)) ] ));
        plain "main" [] (handle "body" [ ("E1", "h") ]);
      ]
      (Outcome.Value 107);
    mk "effect_in_return_branch"
      "a perform in a handler's return case runs outside that handler and \
       reaches the enclosing one"
      [
        id;
        plain "retperform" [ "r" ] (Perform ("E2", Binop (Add, Var "r", Int 1)));
        effc "h2" (Continue (Var "h2_k", Binop (Add, Var "h2_x", Int 5)));
        plain "body" [] (Int 5);
        plain "inner" [] (handle ~ret:"retperform" "body" []);
        plain "main" [] (handle "inner" [ ("E2", "h2") ]);
      ]
      (Outcome.Value 11);
    mk "effect_in_return_unhandled"
      "a handler does not handle effects performed by its own return case, \
       even for labels it has a case for"
      [
        id;
        effc "h" (Continue (Var "h_k", Var "h_x"));
        plain "retperform" [ "r" ] (Perform ("E1", Var "r"));
        plain "body" [] (Int 1);
        plain "main" [] (handle ~ret:"retperform" "body" [ ("E1", "h") ]);
      ]
      Outcome.Unhandled;
    mk "discontinue_then_continue"
      "a discontinued continuation counts as resumed: a later continue \
       raises Invalid_argument"
      [
        id;
        effc "h"
          (Seq (Discontinue (Var "h_k", "A", Int 0), Continue (Var "h_k", Var "h_x")));
        plain "body" [] (Trywith (Perform ("E1", Int 3), [ ("A", "e", Int 42) ]));
        plain "main" [] (handle "body" [ ("E1", "h") ]);
      ]
      Outcome.One_shot;
    mk "unhandled_in_callback"
      "an effect performed inside a callback cannot reach handlers outside \
       the external frame (\xc2\xa73.1); it fails with Unhandled at the perform site"
      [
        id;
        effc "h" (Continue (Var "h_k", Var "h_x"));
        plain "perf" [ "p" ] (Perform ("E1", Var "p"));
        plain "body" []
          (Trywith (Fragment.callback "perf" (Int 5), [ ("Unhandled", "e", Int 99) ]));
        plain "main" [] (handle "body" [ ("E1", "h") ]);
      ]
      (Outcome.Value 99);
    mk "div_by_zero_payload"
      "division by zero carries the dividend as its payload in all three \
       models"
      [
        plain "main" []
          (Trywith
             ( Binop (Div, Int 7, Int 0),
               [ ("Division_by_zero", "e", Var "e") ] ));
      ]
      (Outcome.Value 7);
    mk "deep_growth_capture"
      "capture at recursion depth 200 forces fiber stack growth before the \
       continuation is taken and resumed"
      [
        id;
        plain "down" [ "n" ]
          (If
             ( Binop (Le, Var "n", Int 0),
               Perform ("E1", Int 0),
               Binop (Add, Call ("down", [ Binop (Sub, Var "n", Int 1) ]), Int 1) ));
        effc "h" (Continue (Var "h_k", Var "h_x"));
        plain "body" [] (Call ("down", [ Int 200 ]));
        plain "main" [] (handle "body" [ ("E1", "h") ]);
      ]
      (Outcome.Value 200);
    mk "nested_reperform"
      "an effect unhandled by the inner handler is forwarded to the outer \
       one; resuming runs back through both"
      [
        id;
        effc "hout" (Continue (Var "hout_k", Binop (Add, Var "hout_x", Int 1)));
        effc "hother" (Continue (Var "hother_k", Var "hother_x"));
        plain "body" [] (Perform ("E1", Int 5));
        plain "inner" [] (handle "body" [ ("E2", "hother") ]);
        plain "main" [] (handle "inner" [ ("E1", "hout") ]);
      ]
      (Outcome.Value 6);
    mk "exception_through_handler"
      "an exception with no case in the handler passes through it to an \
       enclosing try"
      [
        id;
        effc "h" (Continue (Var "h_k", Var "h_x"));
        plain "body" [] (Raise ("A", Int 9));
        plain "handled" [] (handle "body" [ ("E1", "h") ]);
        plain "main" [] (Trywith (Call ("handled", []), [ ("A", "e", Var "e") ]));
      ]
      (Outcome.Value 9);
  ]
