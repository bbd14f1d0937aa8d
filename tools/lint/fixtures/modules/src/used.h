#pragma once
// Fixture: reached from examples/; pulls in core/deep.h through src/.
#include "core/deep.h"
