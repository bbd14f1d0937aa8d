#pragma once
// Fixture: the umbrella header is exempt, and its includes keep nothing alive.
#include "orphan.h"
#include "used.h"
